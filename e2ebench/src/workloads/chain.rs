//! `chain`: transform-heavy year pipelines (few authors, a tiny
//! forest, 8 challenges, long NCT/CT chains) built under recoverable
//! fault injection, for every paper year under two derived seeds per
//! pass. The transformation chain, the fault layer and the incremental
//! frontend do almost all of the work. Six builds per pass average over
//! six independent sets of chains, so the seed moves the amount of
//! work less.
//!
//! Check (the chaos invariant): every faulty build's digest — human
//! and transformed features, sources, oracle labels and artifact-cache
//! counters — equals the fault-free build's, which set-up computes.

use std::time::Instant;

use synthattr_analysis::{Analyzer, Severity};
use synthattr_core::config::{ExperimentConfig, Scale};
use synthattr_core::pipeline::{DiagnosticStats, Setting, TransformedEntry, YearPipeline};
use synthattr_core::{Artifact, ArtifactCache, AuthorshipModel, FrontendStats};
use synthattr_faults::drivers::{run_ct_resilient_cached, run_nct_resilient_cached};
use synthattr_faults::{FaultProfile, FaultyTransformer, ResilienceStats};
use synthattr_features::{FeatureConfig, FeatureExtractor};
use synthattr_gen::challenges::ChallengeId;
use synthattr_gen::corpus::{generate_year, solution_in_style, Origin, YearSpec};
use synthattr_gpt::incr::FrontendCache;
use synthattr_gpt::pool::YearPool;
use synthattr_ml::dataset::Dataset;
use synthattr_util::Pcg64;

use super::{build_digest, workers};
use crate::trace::Tracer;
use crate::{
    layer_values, measure_passes, repeat_setup, stats, EndToEnd, LayerValues, Opts, Report,
};

const YEARS: [u32; 3] = [2017, 2018, 2019];
/// Independent seeds per pass, each building every year.
const SUBSEEDS: u64 = 2;
/// The year the traced replay rebuilds.
const YEAR: u32 = 2018;
/// Steps per (challenge, setting) chain: 8 × 4 × 128 = 4096 samples.
const TRANSFORMS: usize = 128;
const FAULT_RATE: f64 = 0.20;
const SETUP_REPS: usize = 3;
/// Mirrors the pipeline's per-challenge artifact cache bound.
const CACHE_CAP: usize = 4096;

fn config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed: 0xC4A1_2025_u64.wrapping_add(seed),
        scale: Scale {
            authors: 24,
            challenges: 8,
            transforms: TRANSFORMS,
            n_trees: 8,
        },
        features: FeatureConfig::default(),
        workers: None,
        faults: None,
    }
}

fn faulty(seed: u64) -> ExperimentConfig {
    config(seed).with_faults(FaultProfile::recoverable(seed ^ 0xFA17, FAULT_RATE))
}

fn digest(p: &YearPipeline) -> u64 {
    build_digest(&p.human_features, &p.transformed, &p.frontend)
}

fn build(year: u32, cfg: &ExperimentConfig) -> YearPipeline {
    YearPipeline::try_build(year, cfg).expect("generated inputs always build")
}

/// The (seed, year) builds of one pass for workload seed `seed`.
fn jobs(seed: u64) -> Vec<(u64, u32)> {
    (0..SUBSEEDS)
        .flat_map(|k| YEARS.map(|year| (seed * SUBSEEDS + k, year)))
        .collect()
}

pub fn run(opts: &Opts, report: &mut Report) -> EndToEnd {
    let jobs = jobs(opts.seed);
    let (reference, setup_s) = repeat_setup(SETUP_REPS, || {
        let digests: Vec<u64> = jobs
            .iter()
            .map(|&(seed, year)| digest(&build(year, &config(seed))))
            .collect();
        digests
    });
    let (passes, cpu_total_s, peak_heap_bytes) = measure_passes(opts.seconds, || {
        let builds: Vec<(u64, usize, u64)> = jobs
            .iter()
            .map(|&(seed, year)| {
                let p = build(year, &faulty(seed));
                (digest(&p), p.transformed.len(), p.resilience.retries)
            })
            .collect();
        builds
    });
    for (_, builds) in &passes {
        for ((d, _, _), r) in builds.iter().zip(&reference) {
            report.check(d == r, "faulty build digest equals the fault-free build's");
        }
    }
    let samples: usize = passes[0].1.iter().map(|b| b.1).sum();
    let retries: u64 = passes[0].1.iter().map(|b| b.2).sum();
    report.note("samples_per_pass", samples);
    report.note("retries_per_pass", retries);
    let pass_s: Vec<f64> = passes.iter().map(|(s, _)| *s).collect();
    // One operation is a whole pass: single builds differ by year and
    // seed, and which build's cost sits at the median shifts with both.
    let op_ms = pass_s.iter().map(|s| s * 1e3).collect();
    EndToEnd {
        items_per_s: samples as f64 / stats::median(&pass_s),
        setup_s,
        pass_s,
        cpu_total_s,
        peak_heap_bytes,
        op_ms,
    }
}

/// What the replay rebuilt, in the shape the digest reads.
struct Replayed {
    human_features: Vec<Vec<f64>>,
    transformed: Vec<TransformedEntry>,
    frontend: FrontendStats,
    resilience: ResilienceStats,
}

fn absorb(stats: &mut DiagnosticStats, diags: &[synthattr_analysis::Diagnostic]) {
    stats.units += 1;
    for d in diags {
        *stats.per_pass.entry(d.pass.to_string()).or_insert(0) += 1;
        match d.severity {
            Severity::Error => stats.errors += 1,
            Severity::Warning => stats.warnings += 1,
        }
    }
}

/// Rebuilds the pipeline `YearPipeline::try_build` builds under `cfg`'s
/// fault profile, serially and step by step through the layers' entry
/// points, with a span around each call. The fault proxy, the transformation step and the parse
/// of each accepted response run inside one driver call, so they share
/// the `gpt` span.
fn replay(cfg: &ExperimentConfig, tr: &mut Tracer) -> Replayed {
    let offset = 3; // 2018's challenge window, as in the pipeline.
    let spec = YearSpec {
        year: YEAR,
        authors: cfg.scale.authors,
        challenges: ChallengeId::all()[offset..offset + cfg.scale.challenges].to_vec(),
    };
    let year = YEAR.to_string();
    let analyzer = Analyzer::new();
    let extractor = FeatureExtractor::new(cfg.features.clone());
    let mut diagnostics = DiagnosticStats::default();
    let mut frontend = FrontendStats::default();

    let corpus = tr.leaf("gen", 0, || generate_year(&spec, cfg.seed));
    tr.count("gen.samples", corpus.len() as f64);
    let mut human_features = Vec::with_capacity(corpus.len());
    for (i, sample) in corpus.samples.iter().enumerate() {
        let request = i as u64;
        let artifact = tr.leaf("core", request, || Artifact::new(sample.source.as_str()));
        tr.leaf("lang", request, || artifact.unit().map(|_| ()))
            .expect("generated code parses");
        let features = tr
            .leaf("features", request, || {
                artifact.features(&extractor).map(|f| f.as_ref().clone())
            })
            .expect("generated code featurizes");
        let diags = tr
            .leaf("analysis", request, || {
                artifact.diagnostics(&analyzer).map(<[_]>::to_vec)
            })
            .expect("generated code lints");
        absorb(&mut diagnostics, &diags);
        frontend.cache_misses += 1;
        human_features.push(features);
    }
    tr.count("lang.parses", corpus.len() as f64);
    tr.count("features.extracts", corpus.len() as f64);

    let oracle = tr.leaf("ml.fit", 0, || {
        let mut ds = Dataset::new(spec.authors);
        for (sample, features) in corpus.samples.iter().zip(&human_features) {
            ds.push(features.clone(), sample.author);
        }
        let mut rng = Pcg64::seed_from(cfg.seed, &["oracle", &year]);
        AuthorshipModel::from_features(extractor.clone(), &ds, &cfg.forest(), &mut rng)
    });
    tr.count("ml.fit.calls", 1.0);

    let profile = cfg
        .faults
        .as_ref()
        .expect("the chain replay runs under faults");
    let pool = YearPool::calibrated(YEAR, cfg.seed);
    let seed_author = (YEAR as usize * 7) % spec.authors;
    let n_streams = spec.challenges.len() * Setting::all().len();
    let mut resilience = ResilienceStats::default();
    let mut transformed = Vec::new();
    for (ci, &challenge) in spec.challenges.iter().enumerate() {
        let request = ci as u64;
        let ci_tag = ci.to_string();
        let service = FaultyTransformer::new(&pool, profile.plan(), profile.policy.clone());
        let mut cache = ArtifactCache::bounded(CACHE_CAP);
        let mut fc = FrontendCache::new();
        let gpt_seed = tr.leaf("gen", request, || {
            let mut gen_rng = Pcg64::seed_from(cfg.seed, &["gpt-gen", &year, &ci_tag]);
            let style = pool.style(pool.sample_index(&mut gen_rng));
            solution_in_style(
                challenge,
                style,
                cfg.seed,
                &["gpt-gen-code", &year, &ci_tag],
            )
        });
        let human_seed = &corpus
            .samples
            .iter()
            .find(|s| s.author == seed_author && s.challenge == ci)
            .expect("corpus covers author x challenge")
            .source;
        for setting in Setting::all() {
            let (seed_code, origin) = if setting.human_seed() {
                (human_seed, Origin::Human)
            } else {
                (&gpt_seed, Origin::ChatGpt)
            };
            let mut rng =
                Pcg64::seed_from(cfg.seed, &["transform", &year, &ci_tag, setting.notation()]);
            let seed_artifact = tr.leaf("core", request, || cache.intern(seed_code));
            tr.begin("lang", request);
            let seed_unit = seed_artifact.unit().expect("seed parses");
            tr.end();
            tr.begin("gpt", request);
            let anchor = format!("ch{ci}/{}", setting.notation());
            let mut cx = profile.stream_cx(n_streams);
            let n = cfg.scale.transforms;
            let run = if setting.chaining() {
                run_ct_resilient_cached(
                    &service, seed_code, seed_unit, n, origin, &mut rng, &anchor, &mut cx, &mut fc,
                )
            } else {
                run_nct_resilient_cached(
                    &service, seed_code, seed_unit, n, origin, &mut rng, &anchor, &mut cx, &mut fc,
                )
            }
            .expect("recoverable faults never fail a stream");
            resilience.merge(&run.stats);
            let (samples, units, regions, outcomes) =
                (run.samples, run.units, run.regions, run.outcomes);
            tr.end();
            tr.count("gpt.steps", samples.len() as f64);
            for (((sample, unit), region), outcome) in
                samples.into_iter().zip(units).zip(regions).zip(outcomes)
            {
                let artifact = tr.leaf("core", request, || {
                    cache.intern_with_unit(&sample.source, unit)
                });
                let features = tr
                    .leaf("features", request, || match &region {
                        Some(ri) => artifact.features_with(|src, unit| {
                            let items: Vec<_> = ri
                                .item_hashes
                                .iter()
                                .zip(&unit.items)
                                .map(|(h, item)| fc.item_features_for(*h, item))
                                .collect();
                            let layouts: Vec<_> = ri
                                .spans
                                .iter()
                                .map(|sp| (sp.sep_before, fc.layout_for(&src[sp.start..sp.end])))
                                .collect();
                            oracle.extractor().extract_from_parts(
                                src.len(),
                                items.iter().map(|a| a.as_ref()),
                                layouts.iter().map(|(s, l)| (*s, l.as_ref())),
                            )
                        }),
                        None => artifact.features(oracle.extractor()),
                    })
                    .expect("transformed code featurizes")
                    .clone();
                tr.count("features.extracts", 1.0);
                let oracle_label = tr
                    .leaf("ml.predict", request, || artifact.oracle_label(&oracle))
                    .expect("transformed code is labelled");
                tr.count("ml.predict.rows", 1.0);
                let diags = tr
                    .leaf("analysis", request, || match &region {
                        Some(ri) => artifact
                            .diagnostics_with(|unit| fc.diags_for(ri.unit_hash, unit, &analyzer))
                            .map(<[_]>::to_vec),
                        None => artifact.diagnostics(&analyzer).map(<[_]>::to_vec),
                    })
                    .expect("transformed code lints");
                absorb(&mut diagnostics, &diags);
                transformed.push(TransformedEntry {
                    sample,
                    challenge: ci,
                    setting,
                    features,
                    oracle_label,
                    outcome,
                });
            }
        }
        let mut fe = cache.stats();
        fe.node_hits = fc.node_hits();
        fe.node_misses = fc.node_misses();
        frontend.merge(&fe);
    }
    tr.count("analysis.units", diagnostics.units as f64);
    Replayed {
        human_features,
        transformed,
        frontend,
        resilience,
    }
}

pub fn trace(opts: &Opts, report: &mut Report) -> (LayerValues, Tracer) {
    let seed = opts.seed * SUBSEEDS;
    let reference = digest(&build(YEAR, &config(seed)));
    let cfg = faulty(seed);
    let (passes, cpu_s, _) = measure_passes(0.0, || build(YEAR, &cfg));
    let (wall_s, untraced) = &passes[0];
    let untraced_digest = digest(untraced);
    report.check(
        untraced_digest == reference,
        "faulty build digest equals the fault-free build's",
    );

    let t0 = Instant::now();
    let off = replay(&cfg, &mut Tracer::new(false));
    let off_s = t0.elapsed().as_secs_f64();
    let mut tr = Tracer::new(true);
    let t0 = Instant::now();
    tr.begin("run", 0);
    let on = replay(&cfg, &mut tr);
    tr.end();
    let on_s = t0.elapsed().as_secs_f64();
    for r in [&off, &on] {
        report.check(
            build_digest(&r.human_features, &r.transformed, &r.frontend) == untraced_digest
                && r.resilience == untraced.resilience,
            "replayed build equals the untraced build",
        );
    }

    let mut v = layer_values(&tr);
    for name in [
        "gen.samples",
        "lang.parses",
        "features.extracts",
        "analysis.units",
        "gpt.steps",
        "ml.fit.calls",
        "ml.predict.rows",
    ] {
        v.insert(name, tr.counter(name));
    }
    let fe = &untraced.frontend;
    let node_total = (fe.node_hits + fe.node_misses).max(1);
    v.insert(
        "features.node_hit_ratio",
        fe.node_hits as f64 / node_total as f64,
    );
    v.insert("core.artifact_hit_ratio", fe.hit_rate());
    v.insert("core.frontend_s", fe.frontend_ns as f64 / 1e9);
    let rs = &on.resilience;
    v.insert("faults.calls", rs.calls as f64);
    v.insert("faults.retries", rs.retries as f64);
    v.insert("faults.recovered", rs.recovered as f64);
    v.insert(
        "faults.accept_ratio",
        rs.calls as f64 / (rs.calls + rs.retries).max(1) as f64,
    );
    v.insert("pool.busy_ratio", cpu_s / (wall_s * workers() as f64));
    v.insert("trace_overhead_pct", crate::overhead_pct(on_s, off_s));
    (v, tr)
}
