//! End-to-end properties of the single-parse artifact frontend.
//!
//! The golden grid (`tests/frontend_golden.rs`) pins what the cached
//! frontend produces; this suite checks the cache's own contract:
//!
//! 1. artifact and node hit/miss totals — not just pipeline outputs —
//!    are invariant under the worker count at every fault rate,
//!    because caches are sharded per dispatch unit and merged in input
//!    order;
//! 2. identical source texts share one [`Artifact`] (pointer
//!    equality), so every frontend product is computed at most once
//!    per distinct text;
//! 3. degraded chaos runs (held CT steps, seed-code fallbacks) produce
//!    repeated texts and therefore real cache hits.

use std::sync::Arc;
use synthattr::analysis::Analyzer;
use synthattr::core::artifact::{Artifact, ArtifactCache};
use synthattr::core::config::ExperimentConfig;
use synthattr::core::pipeline::YearPipeline;
use synthattr::faults::FaultProfile;
use synthattr::features::{FeatureConfig, FeatureExtractor};

/// Hit/miss totals (artifact and node) and every cached product are a
/// pure function of the inputs: worker counts 1, 2, and 8 must agree
/// exactly, under a brutal profile and at recoverable rates 0, 5 and
/// 20%.
#[test]
fn frontend_counters_are_worker_invariant() {
    let profiles = [
        Some(FaultProfile::brutal(11)),
        None,
        Some(FaultProfile::recoverable(11, 0.05)),
        Some(FaultProfile::recoverable(11, 0.20)),
    ];
    for profile in profiles {
        let ctx = format!("{profile:?}");
        let builds: Vec<YearPipeline> = [1usize, 2, 8]
            .into_iter()
            .map(|w| {
                let mut cfg = ExperimentConfig::smoke();
                cfg.faults = profile.clone();
                cfg.workers = Some(w);
                YearPipeline::build(2019, &cfg)
            })
            .collect();
        let baseline = &builds[0];
        assert!(baseline.frontend.cache_misses > 0, "{ctx}");
        assert!(baseline.frontend.node_hits > 0, "{ctx}");
        for other in &builds[1..] {
            // FrontendStats equality compares the counters and ignores
            // wall-clock, which legitimately varies with the worker count.
            assert_eq!(baseline.frontend, other.frontend, "{ctx}");
            assert_eq!(baseline.diagnostics, other.diagnostics, "{ctx}");
            assert_eq!(baseline.resilience, other.resilience, "{ctx}");
            assert_eq!(baseline.human_features, other.human_features, "{ctx}");
            assert_eq!(baseline.transformed.len(), other.transformed.len(), "{ctx}");
            for (a, b) in baseline.transformed.iter().zip(&other.transformed) {
                assert_eq!(a.sample.source, b.sample.source, "{ctx}");
                assert_eq!(a.oracle_label, b.oracle_label, "{ctx}");
                assert_eq!(a.outcome, b.outcome, "{ctx}");
            }
        }
    }
}

/// Two interns of the same text return the *same allocation*, and the
/// shared artifact parses at most once no matter how many clients hold
/// it.
#[test]
fn identical_sources_share_one_artifact() {
    const SRC: &str = "int main() { int total = 0; total = total + 2; return total; }";
    let mut cache = ArtifactCache::bounded(4);
    let first = cache.intern(SRC);
    let second = cache.intern(SRC);
    assert!(
        Arc::ptr_eq(&first, &second),
        "identical text must share one artifact"
    );
    // Cache + two clients: the cache's own handle plus the two interns
    // above all point at a single allocation.
    assert_eq!(Arc::strong_count(&first), 3);
    assert_eq!((cache.hits(), cache.misses()), (1, 1));

    // One shared parse: both handles see the same AST storage.
    let a = first.unit().expect("valid source") as *const _;
    let b = second.unit().expect("valid source") as *const _;
    assert_eq!(a, b, "the AST is materialised once and shared");
}

/// The standalone artifact agrees with the from-scratch frontend, so
/// sharing can never change results.
#[test]
fn shared_artifacts_match_from_scratch_products() {
    const SRC: &str = "int f(int n) { if (n > 1) { return n; } return 1; }";
    let artifact = Artifact::new(SRC);
    assert_eq!(
        artifact.unit().unwrap(),
        &synthattr::lang::parse(SRC).unwrap()
    );
    let analyzer = Analyzer::new();
    assert_eq!(
        artifact.diagnostics(&analyzer).unwrap(),
        &analyzer.analyze_source(SRC).unwrap()[..]
    );
    let extractor = FeatureExtractor::new(FeatureConfig::default());
    assert_eq!(
        artifact.features(&extractor).unwrap().as_slice(),
        &extractor.extract(SRC).unwrap()[..]
    );
}

/// Under a brutal fault profile, CT streams hold their last good step
/// and NCT streams fall back to the seed — repeated texts that the
/// cache must serve as hits rather than re-running the frontend.
#[test]
fn degraded_chaos_runs_hit_the_cache() {
    let cfg = ExperimentConfig::smoke().with_faults(FaultProfile::brutal(5));
    let p = YearPipeline::build(2017, &cfg);
    assert!(
        p.resilience.degraded + p.resilience.failed > 0,
        "brutal profile should degrade: {:?}",
        p.resilience
    );
    // Floor without degradation: each challenge interns its two seeds
    // twice (one hit each). Held/fallback steps push it strictly past
    // the floor.
    let floor = 2 * p.config.scale.challenges as u64;
    assert!(
        p.frontend.cache_hits > floor,
        "expected held-step hits beyond the {floor}-hit seed floor: {:?}",
        p.frontend
    );
    let total = p.frontend.cache_hits + p.frontend.cache_misses;
    assert!(p.frontend.hit_rate() > 0.0 && p.frontend.hit_rate() < 1.0);
    // Every human sample and every transformed sample requested an
    // artifact, plus one seed intern per (challenge, setting).
    assert_eq!(
        total as usize,
        p.corpus.len() + p.transformed.len() + 4 * p.config.scale.challenges
    );
}

/// The LRU changes residency, never results. Across nine seeded
/// request pools: a capacity covering every distinct source evicts
/// nothing, so misses count the distinct sources and hits the requests
/// beyond them; a tight capacity keeps residency bounded, counts its
/// evictions, and still returns identical frontend products for every
/// request.
#[test]
fn bounded_lru_preserves_semantics_and_bounds_memory() {
    use std::collections::HashSet;
    use synthattr::util::Pcg64;

    const TIGHT: usize = 8;
    const REQUESTS: u64 = 400;
    for pool_seed in 0..9u64 {
        let mut rng = Pcg64::seed_from(0xCA_C4E0, &["lru-ab", &pool_seed.to_string()]);
        let universe: Vec<String> = (0..32)
            .map(|i| format!("int main() {{ int v{i} = {i}; return v{i} * 2; }}"))
            .collect();

        let mut generous = ArtifactCache::bounded(universe.len() * 2);
        let mut tight = ArtifactCache::bounded(TIGHT);
        let mut distinct = HashSet::new();
        for _ in 0..REQUESTS {
            let src = &universe[rng.next_below(universe.len())];
            distinct.insert(src);
            let b = generous.intern(src);
            let c = tight.intern(src);
            // Same text, same products — no matter what got evicted.
            assert_eq!(b.unit().unwrap(), c.unit().unwrap());
            assert!(tight.len() <= TIGHT, "pool {pool_seed}: residency bound");
        }

        let distinct = distinct.len() as u64;
        assert_eq!(
            (generous.hits(), generous.misses()),
            (REQUESTS - distinct, distinct),
            "pool {pool_seed}: without eviction, misses are the distinct sources"
        );
        assert_eq!(generous.evictions(), 0, "pool {pool_seed}");

        // The tight cache answered every request too — hits + misses
        // add up the same — it just re-parsed what it evicted.
        assert_eq!(tight.hits() + tight.misses(), REQUESTS, "pool {pool_seed}");
        assert!(
            tight.evictions() > 0 && tight.misses() > distinct,
            "pool {pool_seed}: a tight cache must evict and re-miss: {} evictions",
            tight.evictions()
        );
        // Conservation: every miss inserted one entry, and every entry
        // not still resident was evicted.
        assert_eq!(
            tight.evictions(),
            tight.misses() - tight.len() as u64,
            "pool {pool_seed}: evictions = inserts - residents"
        );
    }
}
