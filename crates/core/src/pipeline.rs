//! The shared per-year experiment pipeline (the paper's Figure 1).
//!
//! Building a [`YearPipeline`] performs, in order:
//!
//! 1. generate the year's human corpus (`authors × challenges`,
//!    Table I);
//! 2. train the **oracle**: the non-ChatGPT authorship model over all
//!    human authors;
//! 3. produce the seeds — one LLM-generated solution per challenge and
//!    one human author's solutions — and run the four transformation
//!    settings `+N`, `+C`, `±N`, `±C` (Table II);
//! 4. featurize everything once and cache the oracle's predicted label
//!    ("style") for every transformed sample.
//!
//! Every table driver in [`crate::experiments`] is a cheap analysis
//! pass over this cached state.

use crate::artifact::{Artifact, ArtifactCache, FrontendStats};
use crate::config::ExperimentConfig;
use crate::error::PipelineError;
use crate::model::AuthorshipModel;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use synthattr_analysis::{Analyzer, Severity};
use synthattr_faults::drivers::{run_ct_resilient_cached, run_nct_resilient_cached};
use synthattr_faults::{FaultyTransformer, Outcome, ResilienceStats};
use synthattr_features::FeatureExtractor;
use synthattr_gen::challenges::ChallengeId;
use synthattr_gen::corpus::{generate_year, Origin, YearCorpus, YearSpec};
use synthattr_gpt::chain::TransformedSample;
use synthattr_gpt::incr::{try_run_ct_steps_cached, try_run_nct_steps_cached, FrontendCache};
use synthattr_gpt::pool::YearPool;
use synthattr_gpt::transform::Transformer;
use synthattr_gpt::GptError;
use synthattr_ml::dataset::Dataset;
use synthattr_util::{pool, Pcg64};

/// Capacity of each per-challenge artifact cache. Far above the
/// distinct-text count any real challenge produces, so it bounds
/// memory without ever changing hit/miss totals.
const PER_CHALLENGE_CACHE_CAP: usize = 4096;

/// The four transformation settings of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Setting {
    /// ChatGPT-generated seed, non-chaining (`+N`).
    GptNct,
    /// ChatGPT-generated seed, chaining (`+C`).
    GptCt,
    /// Human-written seed, non-chaining (`±N`).
    HumanNct,
    /// Human-written seed, chaining (`±C`).
    HumanCt,
}

impl Setting {
    /// All settings in the paper's column order.
    pub fn all() -> [Setting; 4] {
        [
            Setting::GptNct,
            Setting::GptCt,
            Setting::HumanNct,
            Setting::HumanCt,
        ]
    }

    /// The paper's column notation.
    pub fn notation(self) -> &'static str {
        match self {
            Setting::GptNct => "+N",
            Setting::GptCt => "+C",
            Setting::HumanNct => "±N",
            Setting::HumanCt => "±C",
        }
    }

    /// Dense index in `[0, 4)`.
    pub fn index(self) -> usize {
        match self {
            Setting::GptNct => 0,
            Setting::GptCt => 1,
            Setting::HumanNct => 2,
            Setting::HumanCt => 3,
        }
    }

    /// Whether the seed code is human-written.
    pub fn human_seed(self) -> bool {
        matches!(self, Setting::HumanNct | Setting::HumanCt)
    }

    /// Whether the protocol chains.
    pub fn chaining(self) -> bool {
        matches!(self, Setting::GptCt | Setting::HumanCt)
    }
}

/// Aggregated lint results over every program a pipeline produced
/// (human corpus plus all transformed samples). Counts are summed per
/// pass, so they are invariant under worker count and sample order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiagnosticStats {
    /// Programs analyzed.
    pub units: usize,
    /// Diagnostic count per analysis pass name.
    pub per_pass: BTreeMap<String, usize>,
    /// Error-severity diagnostics (the generation and transform gates
    /// keep this at zero; a nonzero value here is a pipeline bug).
    pub errors: usize,
    /// Warning-severity diagnostics (unused variables, shadowing, …).
    pub warnings: usize,
}

impl DiagnosticStats {
    /// Folds one program's diagnostics into the stats.
    fn absorb(&mut self, diags: &[synthattr_analysis::Diagnostic]) {
        self.units += 1;
        for d in diags {
            *self.per_pass.entry(d.pass.to_string()).or_insert(0) += 1;
            match d.severity {
                Severity::Error => self.errors += 1,
                Severity::Warning => self.warnings += 1,
            }
        }
    }

    /// Folds another dispatch unit's stats into this one. All fields
    /// are sums, so merging in input order is equal to absorbing every
    /// program serially.
    fn merge(&mut self, other: &DiagnosticStats) {
        self.units += other.units;
        for (pass, n) in &other.per_pass {
            *self.per_pass.entry(pass.clone()).or_insert(0) += n;
        }
        self.errors += other.errors;
        self.warnings += other.warnings;
    }
}

/// One transformed sample with cached analysis state.
#[derive(Debug, Clone)]
pub struct TransformedEntry {
    /// The transformed sample itself.
    pub sample: TransformedSample,
    /// Challenge index within the year.
    pub challenge: usize,
    /// Transformation setting.
    pub setting: Setting,
    /// Cached stylometry vector, shared with the artifact that
    /// computed it.
    pub features: Arc<Vec<f64>>,
    /// The oracle's predicted author label — the sample's "style".
    pub oracle_label: usize,
    /// How the sample survived fault injection ([`Outcome::Clean`]
    /// everywhere when the pipeline runs without a fault profile).
    pub outcome: Outcome,
}

/// Cached state for one experiment year.
#[derive(Debug, Clone)]
pub struct YearPipeline {
    /// The year (2017/2018/2019).
    pub year: u32,
    /// Configuration used to build the pipeline.
    pub config: ExperimentConfig,
    /// The human corpus (Table I).
    pub corpus: YearCorpus,
    /// Feature vectors aligned with `corpus.samples`.
    pub human_features: Vec<Vec<f64>>,
    /// The non-ChatGPT oracle model (one class per human author).
    pub oracle: AuthorshipModel,
    /// All transformed samples with cached features and styles
    /// (Table II).
    pub transformed: Vec<TransformedEntry>,
    /// The human author whose code seeded the `±` settings.
    pub seed_author: usize,
    /// Aggregated analyzer diagnostics over every program in the run.
    pub diagnostics: DiagnosticStats,
    /// Resilience accounting for the transformation stage (all-clean
    /// with zero overhead when `config.faults` is `None`).
    pub resilience: ResilienceStats,
    /// Frontend accounting: artifact-cache hits/misses and wall-clock
    /// spent in parse/lint/fingerprint/featurize work. The counters
    /// are worker-count invariant; only `frontend_ns` varies.
    pub frontend: FrontendStats,
}

impl YearPipeline {
    /// Builds the full pipeline for `year`.
    ///
    /// The two hot stages — per-sample feature extraction and
    /// per-challenge transformation — run on the scoped worker pool
    /// (`synthattr_util::pool`). Every random stream is derived
    /// hierarchically *before* dispatch, and the pool preserves input
    /// order, so the result is byte-identical for any worker count
    /// (`config.workers` / `SYNTHATTR_WORKERS` only change wall-clock
    /// time; see `parallel_build_matches_serial` in the tests).
    ///
    /// # Panics
    ///
    /// Panics if `year` is not 2017/2018/2019, or on internal
    /// generation bugs (generated code must always parse). Fallible
    /// callers should use [`YearPipeline::try_build`].
    pub fn build(year: u32, config: &ExperimentConfig) -> Self {
        Self::try_build(year, config).unwrap_or_else(|e| panic!("pipeline build failed: {e}"))
    }

    /// Builds the full pipeline for `year`, surfacing failures as
    /// [`PipelineError`]s. Worker-thread errors propagate through
    /// `pool::parallel_try_map_workers` instead of poisoning the
    /// whole process.
    ///
    /// # Errors
    ///
    /// * [`PipelineError::UnsupportedYear`] — `year` outside 2017–2019.
    /// * [`PipelineError::Transform`] — a transformation stream failed
    ///   irrecoverably (service faults *degrade* rather than error;
    ///   see `config.faults`).
    /// * [`PipelineError::Analysis`] — a pipeline-produced program was
    ///   rejected downstream (always a bug, reported as data).
    pub fn try_build(year: u32, config: &ExperimentConfig) -> Result<Self, PipelineError> {
        let workers = pool::resolve_workers(config.workers);
        let spec = try_year_spec(year, config)?;
        let (corpus, human_features, mut diagnostics, mut frontend, oracle) =
            oracle_stage(&spec, config, workers)?;
        let analyzer = Analyzer::new();

        // Seeds and transformations.
        let pool = YearPool::calibrated(year, config.seed);
        let transformer = Transformer::new(&pool);
        let seed_author = (year as usize * 7) % spec.authors;
        // Resilience state is sharded per (challenge x setting) call
        // stream: each stream owns a breaker and an equal, fixed slice
        // of the pipeline retry budget, decided before dispatch — so
        // the outcome cannot depend on which worker drains which
        // stream (DESIGN.md §9).
        let n_streams = spec.challenges.len() * Setting::all().len();
        // One task per challenge; each task derives its own RNG
        // streams from the root seed, so scheduling cannot perturb
        // them, and the order-preserving pool plus a flatten
        // reproduces the serial push order exactly. Each task owns a
        // local artifact cache — sharded per challenge so hit/miss
        // totals are a pure function of the inputs, never of which
        // worker drained which task.
        #[allow(clippy::type_complexity)]
        let per_challenge: Vec<(
            Vec<TransformedEntry>,
            ResilienceStats,
            DiagnosticStats,
            FrontendStats,
        )> = pool::parallel_try_map_workers(workers, (0..spec.challenges.len()).collect(), |ci| {
            let challenge = spec.challenges[ci];
            let service = config
                .faults
                .as_ref()
                .map(|p| FaultyTransformer::new(&pool, p.plan(), p.policy.clone()));
            let mut stream_stats = ResilienceStats::default();
            let mut transformed = Vec::new();
            // Bounded so a pathological scale can't hoard every
            // artifact ever parsed. A challenge interns well under
            // a hundred distinct texts (two seeds plus one per
            // transform step × setting), so at this capacity the
            // bound is pure insurance: no eviction ever fires, so
            // misses count the distinct texts and hits the repeats
            // (`tests/frontend_cache.rs` checks that arithmetic).
            let mut cache = ArtifactCache::bounded(PER_CHALLENGE_CACHE_CAP);
            // The node-level cache behind the incremental frontend:
            // shared across this challenge's four settings (their
            // chains revisit the same seeds, items, and layouts),
            // sharded per challenge for the same worker-invariance
            // reason as the artifact cache.
            let mut fc = FrontendCache::new();
            let mut diags = DiagnosticStats::default();
            let mut frontend_ns: u128 = 0;
            // ChatGPT-generated seed: one solution in a weighted pool
            // style (the "generation" role of the simulator).
            let mut gen_rng = Pcg64::seed_from(
                config.seed,
                &["gpt-gen", &year.to_string(), &ci.to_string()],
            );
            let gen_style_idx = pool.sample_index(&mut gen_rng);
            let gpt_seed = synthattr_gen::corpus::solution_in_style(
                challenge,
                pool.style(gen_style_idx),
                config.seed,
                &["gpt-gen-code", &year.to_string(), &ci.to_string()],
            );
            // Human seed: the chosen author's solution to this challenge.
            let human_seed = corpus
                .samples
                .iter()
                .find(|s| s.author == seed_author && s.challenge == ci)
                .expect("corpus covers author x challenge")
                .source
                .clone();

            for setting in Setting::all() {
                let (seed_code, origin) = if setting.human_seed() {
                    (&human_seed, Origin::Human)
                } else {
                    (&gpt_seed, Origin::ChatGpt)
                };
                let mut rng = Pcg64::seed_from(
                    config.seed,
                    &[
                        "transform",
                        &year.to_string(),
                        &ci.to_string(),
                        setting.notation(),
                    ],
                );
                let fail = |source| PipelineError::Transform {
                    year,
                    challenge: ci,
                    setting: setting.notation(),
                    source,
                };
                // Intern the seed once per setting: each seed text
                // is shared by its two settings, so this is two
                // misses and two hits per challenge — and exactly
                // one parse per distinct seed.
                let t0 = Instant::now();
                let seed_artifact = cache.intern(seed_code);
                let seed_unit = seed_artifact.unit().map_err(|e| fail(GptError::Parse(e)))?;
                frontend_ns += t0.elapsed().as_nanos();
                let (samples, units, regions, outcomes) = match (&service, &config.faults) {
                    (Some(svc), Some(profile)) => {
                        let anchor = format!("ch{ci}/{}", setting.notation());
                        let mut cx = profile.stream_cx(n_streams);
                        let run = if setting.chaining() {
                            run_ct_resilient_cached(
                                svc,
                                seed_code,
                                seed_unit,
                                config.scale.transforms,
                                origin,
                                &mut rng,
                                &anchor,
                                &mut cx,
                                &mut fc,
                            )
                        } else {
                            run_nct_resilient_cached(
                                svc,
                                seed_code,
                                seed_unit,
                                config.scale.transforms,
                                origin,
                                &mut rng,
                                &anchor,
                                &mut cx,
                                &mut fc,
                            )
                        }
                        .map_err(fail)?;
                        stream_stats.merge(&run.stats);
                        (run.samples, run.units, run.regions, run.outcomes)
                    }
                    _ => {
                        let steps = if setting.chaining() {
                            try_run_ct_steps_cached(
                                &transformer,
                                seed_code,
                                seed_unit,
                                config.scale.transforms,
                                origin,
                                &mut rng,
                                &mut fc,
                            )
                        } else {
                            try_run_nct_steps_cached(
                                &transformer,
                                seed_code,
                                seed_unit,
                                config.scale.transforms,
                                origin,
                                &mut rng,
                                &mut fc,
                            )
                        }
                        .map_err(fail)?;
                        let outcomes = vec![Outcome::Clean; steps.len()];
                        for o in &outcomes {
                            stream_stats.record(*o);
                        }
                        let mut samples = Vec::with_capacity(steps.len());
                        let mut units = Vec::with_capacity(steps.len());
                        let mut regions = Vec::with_capacity(steps.len());
                        for step in steps {
                            samples.push(step.sample);
                            units.push(step.unit);
                            regions.push(Some(step.regions));
                        }
                        (samples, units, regions, outcomes)
                    }
                };
                // Featurize, label, and lint each sample off one
                // shared artifact. The transform layer already
                // parsed every accepted response, so even a cache
                // miss here costs no parse; a hit (CT held steps,
                // NCT fixed points) reuses every cached product.
                // When the step carries its region structure, even
                // a *miss* only pays for the sub-trees this step
                // actually changed: features assemble from cached
                // per-item partials and per-region layout scans,
                // and diagnostics come off the unit-hash cache.
                for (((sample, unit), region), outcome) in
                    samples.into_iter().zip(units).zip(regions).zip(outcomes)
                {
                    let t0 = Instant::now();
                    let artifact = cache.intern_with_unit(&sample.source, unit);
                    let features = match &region {
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
                    }
                    .map_err(|e| PipelineError::Analysis {
                        stage: "featurize",
                        source: e,
                    })?
                    .clone();
                    let oracle_label =
                        artifact
                            .oracle_label(&oracle)
                            .map_err(|e| PipelineError::Analysis {
                                stage: "featurize",
                                source: e,
                            })?;
                    let sample_diags = match &region {
                        Some(ri) => artifact
                            .diagnostics_with(|unit| fc.diags_for(ri.unit_hash, unit, &analyzer)),
                        None => artifact.diagnostics(&analyzer),
                    }
                    .map_err(|e| PipelineError::Analysis {
                        stage: "lint",
                        source: e,
                    })?;
                    diags.absorb(sample_diags);
                    frontend_ns += t0.elapsed().as_nanos();
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
            let mut frontend = cache.stats();
            frontend.node_hits = fc.node_hits();
            frontend.node_misses = fc.node_misses();
            frontend.frontend_ns = frontend_ns;
            Ok((transformed, stream_stats, diags, frontend))
        })?;
        let mut resilience = ResilienceStats::default();
        let mut transformed: Vec<TransformedEntry> = Vec::new();
        for (entries, stats, d, fe) in per_challenge {
            transformed.extend(entries);
            resilience.merge(&stats);
            diagnostics.merge(&d);
            frontend.merge(&fe);
        }

        Ok(YearPipeline {
            year,
            config: config.clone(),
            corpus,
            human_features,
            oracle,
            transformed,
            seed_author,
            diagnostics,
            resilience,
            frontend,
        })
    }

    /// Number of human authors.
    pub fn n_authors(&self) -> usize {
        self.corpus.spec.authors
    }

    /// Number of challenges.
    pub fn n_challenges(&self) -> usize {
        self.corpus.spec.challenges.len()
    }

    /// Challenge identities for this year.
    pub fn challenges(&self) -> &[ChallengeId] {
        &self.corpus.spec.challenges
    }

    /// The oracle labels of all transformed samples for one
    /// `(challenge, setting)` cell.
    pub fn labels_for(&self, challenge: usize, setting: Setting) -> Vec<usize> {
        self.transformed
            .iter()
            .filter(|t| t.challenge == challenge && t.setting == setting)
            .map(|t| t.oracle_label)
            .collect()
    }

    /// Oracle labels of every transformed sample.
    pub fn all_labels(&self) -> Vec<usize> {
        self.transformed.iter().map(|t| t.oracle_label).collect()
    }

    /// The human dataset (author labels), plus per-sample challenge
    /// groups for fold construction.
    pub fn human_dataset(&self) -> (Dataset, Vec<usize>) {
        let mut ds = Dataset::new(self.n_authors());
        let mut groups = Vec::new();
        for (sample, features) in self.corpus.samples.iter().zip(&self.human_features) {
            ds.push(features.clone(), sample.author);
            groups.push(sample.challenge);
        }
        (ds, groups)
    }
}

/// The human-corpus + oracle stage shared by [`YearPipeline::try_build`]
/// and [`year_oracle`]: generate the year's corpus, featurize and lint
/// it (one artifact per sample, so the corpus is featurized AND linted
/// off a single parse each; sharding per sample keeps the counters a
/// pure function of the corpus), then train the non-ChatGPT oracle.
/// The oracle RNG stream is derived as `["oracle", year]` from the
/// root seed, so every caller trains byte-identical forests.
#[allow(clippy::type_complexity)]
fn oracle_stage(
    spec: &YearSpec,
    config: &ExperimentConfig,
    workers: usize,
) -> Result<
    (
        YearCorpus,
        Vec<Vec<f64>>,
        DiagnosticStats,
        FrontendStats,
        AuthorshipModel,
    ),
    PipelineError,
> {
    let corpus = generate_year(spec, config.seed);
    let analyzer = Analyzer::new();
    let extractor = FeatureExtractor::new(config.features.clone());
    let human: Vec<(Vec<f64>, DiagnosticStats, FrontendStats)> =
        pool::parallel_try_map_workers(workers, (0..corpus.samples.len()).collect(), |i| {
            let t0 = Instant::now();
            let artifact = Artifact::new(corpus.samples[i].source.as_str());
            let features = artifact
                .features(&extractor)
                .map_err(|e| PipelineError::Analysis {
                    stage: "featurize",
                    source: e,
                })?
                .as_ref()
                .clone();
            let mut diags = DiagnosticStats::default();
            diags.absorb(
                artifact
                    .diagnostics(&analyzer)
                    .map_err(|e| PipelineError::Analysis {
                        stage: "lint",
                        source: e,
                    })?,
            );
            let frontend = FrontendStats {
                cache_hits: 0,
                cache_misses: 1,
                node_hits: 0,
                node_misses: 0,
                frontend_ns: t0.elapsed().as_nanos(),
            };
            Ok((features, diags, frontend))
        })?;
    let mut human_features: Vec<Vec<f64>> = Vec::with_capacity(human.len());
    let mut diagnostics = DiagnosticStats::default();
    let mut frontend = FrontendStats::default();
    for (features, diags, fe) in human {
        human_features.push(features);
        diagnostics.merge(&diags);
        frontend.merge(&fe);
    }

    // Oracle: one class per human author.
    let mut human_ds = Dataset::new(spec.authors);
    for (sample, features) in corpus.samples.iter().zip(&human_features) {
        human_ds.push(features.clone(), sample.author);
    }
    let mut rng = Pcg64::seed_from(config.seed, &["oracle", &spec.year.to_string()]);
    let oracle = AuthorshipModel::from_features(extractor, &human_ds, &config.forest(), &mut rng);
    Ok((corpus, human_features, diagnostics, frontend, oracle))
}

/// Trains the year's oracle exactly as [`YearPipeline::try_build`]
/// does — same corpus, same features, same RNG stream — without
/// running the transformation stage. The serving layer's model
/// registry loads forests through this entry point, which is what
/// makes a served verdict byte-identical to the offline pipeline's
/// oracle for the same source.
///
/// # Errors
///
/// * [`PipelineError::UnsupportedYear`] — `year` outside 2017–2019.
/// * [`PipelineError::Analysis`] — a generated program was rejected
///   downstream (always a bug, reported as data).
pub fn year_oracle(year: u32, config: &ExperimentConfig) -> Result<AuthorshipModel, PipelineError> {
    let workers = pool::resolve_workers(config.workers);
    let spec = try_year_spec(year, config)?;
    let (_, _, _, _, oracle) = oracle_stage(&spec, config, workers)?;
    Ok(oracle)
}

/// The year's dataset spec at the configured scale (paper-scale specs
/// match [`YearSpec::paper`]).
fn try_year_spec(year: u32, config: &ExperimentConfig) -> Result<YearSpec, PipelineError> {
    let all = ChallengeId::all();
    let offset = match year {
        2017 => 0,
        2018 => 3,
        2019 => 6,
        other => return Err(PipelineError::UnsupportedYear(other)),
    };
    Ok(YearSpec {
        year,
        authors: config.scale.authors,
        challenges: all[offset..offset + config.scale.challenges].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_pipeline() -> YearPipeline {
        YearPipeline::build(2018, &ExperimentConfig::smoke())
    }

    #[test]
    fn pipeline_shapes_match_config() {
        let p = smoke_pipeline();
        let cfg = &p.config.scale;
        assert_eq!(p.corpus.len(), cfg.authors * cfg.challenges);
        assert_eq!(p.human_features.len(), p.corpus.len());
        // 4 settings x transforms x challenges.
        assert_eq!(p.transformed.len(), 4 * cfg.transforms * cfg.challenges);
        for t in &p.transformed {
            assert!(t.oracle_label < cfg.authors);
            assert_eq!(t.features.len(), p.oracle.extractor().dim());
        }
    }

    #[test]
    fn run_stats_lint_every_program_and_stay_error_free() {
        let p = smoke_pipeline();
        let d = &p.diagnostics;
        assert_eq!(d.units, p.corpus.len() + p.transformed.len());
        assert_eq!(d.errors, 0, "gated pipeline must be error-free: {d:?}");
        let summed: usize = d.per_pass.values().sum();
        assert_eq!(summed, d.errors + d.warnings);
    }

    #[test]
    fn settings_partition_the_transformed_set() {
        let p = smoke_pipeline();
        let per_cell = p.config.scale.transforms;
        for ci in 0..p.n_challenges() {
            for setting in Setting::all() {
                assert_eq!(p.labels_for(ci, setting).len(), per_cell);
            }
        }
    }

    #[test]
    fn human_dataset_is_author_labelled_and_grouped() {
        let p = smoke_pipeline();
        let (ds, groups) = p.human_dataset();
        assert_eq!(ds.len(), p.corpus.len());
        assert_eq!(groups.len(), ds.len());
        assert_eq!(ds.n_classes(), p.n_authors());
        assert!(groups.iter().all(|&g| g < p.n_challenges()));
    }

    #[test]
    fn setting_metadata_is_consistent() {
        for s in Setting::all() {
            assert_eq!(Setting::all()[s.index()], s);
        }
        assert_eq!(Setting::GptNct.notation(), "+N");
        assert_eq!(Setting::HumanCt.notation(), "±C");
        assert!(Setting::HumanNct.human_seed());
        assert!(!Setting::GptCt.human_seed());
        assert!(Setting::GptCt.chaining());
        assert!(!Setting::HumanNct.chaining());
    }

    #[test]
    fn parallel_build_matches_serial() {
        // The tentpole guarantee: the pool only changes wall-clock
        // time. A serial build (1 worker) and a wide build (8
        // workers) must agree byte-for-byte on every cached artifact.
        let mut serial_cfg = ExperimentConfig::smoke();
        serial_cfg.workers = Some(1);
        let mut parallel_cfg = ExperimentConfig::smoke();
        parallel_cfg.workers = Some(8);
        let serial = YearPipeline::build(2018, &serial_cfg);
        let parallel = YearPipeline::build(2018, &parallel_cfg);

        assert_eq!(serial.human_features, parallel.human_features);
        assert_eq!(serial.seed_author, parallel.seed_author);
        assert_eq!(serial.diagnostics, parallel.diagnostics);
        // FrontendStats equality is on the hit/miss counters (wall
        // clock is excluded): the artifact cache is sharded per
        // dispatch unit, so its traffic cannot depend on scheduling.
        assert_eq!(serial.frontend, parallel.frontend);
        assert_eq!(serial.transformed.len(), parallel.transformed.len());
        for (s, p) in serial.transformed.iter().zip(&parallel.transformed) {
            assert_eq!(s.sample.source, p.sample.source);
            assert_eq!(s.challenge, p.challenge);
            assert_eq!(s.setting, p.setting);
            assert_eq!(s.features, p.features);
            assert_eq!(s.oracle_label, p.oracle_label);
        }
    }

    #[test]
    fn build_is_deterministic() {
        let a = smoke_pipeline();
        let b = smoke_pipeline();
        assert_eq!(a.all_labels(), b.all_labels());
        assert_eq!(a.seed_author, b.seed_author);
    }

    #[test]
    fn year_oracle_matches_the_pipeline_oracle_byte_for_byte() {
        // The serving registry's guarantee: the standalone oracle and
        // the pipeline's oracle are the same model — identical
        // probability vectors on every human sample and on transformed
        // text alike.
        let config = ExperimentConfig::smoke();
        let p = YearPipeline::build(2018, &config);
        let standalone = year_oracle(2018, &config).unwrap();
        for features in p.human_features.iter().take(8) {
            assert_eq!(
                standalone.forest().predict_proba(features),
                p.oracle.forest().predict_proba(features)
            );
        }
        let t = &p.transformed[0];
        assert_eq!(
            standalone.forest().predict_proba(&t.features),
            p.oracle.forest().predict_proba(&t.features)
        );
        assert_eq!(
            standalone.predict_features(&t.features),
            t.oracle_label,
            "standalone oracle reproduces the cached label"
        );
    }

    #[test]
    fn year_oracle_rejects_out_of_range_years() {
        let err = year_oracle(1999, &ExperimentConfig::smoke()).unwrap_err();
        assert_eq!(err, PipelineError::UnsupportedYear(1999));
    }

    #[test]
    fn try_build_rejects_out_of_range_years() {
        let err = YearPipeline::try_build(2025, &ExperimentConfig::smoke()).unwrap_err();
        assert_eq!(err, PipelineError::UnsupportedYear(2025));
    }

    #[test]
    fn fault_free_config_reports_all_clean_resilience() {
        let p = smoke_pipeline();
        assert_eq!(p.resilience.calls as usize, p.transformed.len());
        assert_eq!(p.resilience.clean, p.resilience.calls);
        assert_eq!(p.resilience.retries, 0);
        assert_eq!(p.resilience.fidelity(), 1.0);
        assert!(p.transformed.iter().all(|t| t.outcome == Outcome::Clean));
    }

    #[test]
    fn recoverable_faults_leave_the_pipeline_byte_identical() {
        use synthattr_faults::FaultProfile;
        let plain_cfg = ExperimentConfig::smoke();
        let chaos_cfg = ExperimentConfig::smoke().with_faults(FaultProfile::recoverable(7, 0.20));
        let plain = YearPipeline::build(2017, &plain_cfg);
        let chaos = YearPipeline::build(2017, &chaos_cfg);

        assert_eq!(plain.transformed.len(), chaos.transformed.len());
        for (a, b) in plain.transformed.iter().zip(&chaos.transformed) {
            assert_eq!(a.sample.source, b.sample.source);
            assert_eq!(a.oracle_label, b.oracle_label);
        }
        assert!(chaos.resilience.recovered > 0, "{:?}", chaos.resilience);
        assert_eq!(chaos.resilience.fidelity(), 1.0);
        assert!(chaos.transformed.iter().all(|t| t.outcome.is_faithful()));
    }

    #[test]
    fn chatgpt_seeds_differ_from_human_seeds() {
        let p = smoke_pipeline();
        // The +N and ±N first steps come from different seeds, so their
        // sources should differ for at least one challenge.
        let gpt_first = p
            .transformed
            .iter()
            .find(|t| t.setting == Setting::GptNct && t.sample.step == 1)
            .unwrap();
        let human_first = p
            .transformed
            .iter()
            .find(|t| t.setting == Setting::HumanNct && t.sample.step == 1)
            .unwrap();
        assert_ne!(gpt_first.sample.source, human_first.sample.source);
    }
}
