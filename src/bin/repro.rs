//! Regenerates every table and figure of *Attributing
//! ChatGPT-Transformed Synthetic Code*.
//!
//! ```text
//! repro [--smoke] [--seed N] <target> [<target> ...]
//!
//! targets:
//!   table1 .. table10      the paper's tables
//!   figure1 .. figure5     the paper's figures
//!   ablation-features      feature-family ablation (design choice 3)
//!   ablation-chain         CT-stickiness ablation (design choice 4)
//!   ablation-grouping      grouping-strategy ablation (design choice 1)
//!   feature-importance     what gives ChatGPT away, by feature name
//!   all                    everything above
//! ```
//!
//! `--smoke` runs the reduced configuration (seconds instead of
//! minutes) through identical code paths.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use synthattr_core::config::ExperimentConfig;
use synthattr_core::experiments::{attribution, binary, datasets, diversity, figures, styles};
use synthattr_core::pipeline::YearPipeline;
use synthattr_features::FeatureConfig;
use synthattr_gen::corpus::Origin;
use synthattr_gpt::chain::run_ct;
use synthattr_gpt::pool::YearPool;
use synthattr_gpt::transform::Transformer;
use synthattr_util::stats::distinct_count;
use synthattr_util::{pool, Pcg64, Table};

/// The three paper years.
const YEARS: [u32; 3] = [2017, 2018, 2019];

struct Runner {
    config: ExperimentConfig,
    pipelines: HashMap<u32, YearPipeline>,
}

impl Runner {
    fn new(config: ExperimentConfig) -> Self {
        Runner {
            config,
            pipelines: HashMap::new(),
        }
    }

    fn pipeline(&mut self, year: u32) -> &YearPipeline {
        if !self.pipelines.contains_key(&year) {
            eprintln!("[repro] building GCJ {year} pipeline ...");
            let p = YearPipeline::build(year, &self.config);
            report_frontend(year, &p);
            self.pipelines.insert(year, p);
        }
        &self.pipelines[&year]
    }

    /// Builds every missing year pipeline on the worker pool. Each
    /// year derives its own seed hierarchy before dispatch and the
    /// pool preserves input order, so the results are byte-identical
    /// to the sequential build for any worker count (asserted by
    /// `parallel_pipeline_build_is_worker_invariant` in
    /// `tests/e2e_pipeline.rs`).
    fn all_pipelines(&mut self) -> Vec<&YearPipeline> {
        let missing: Vec<u32> = YEARS
            .iter()
            .copied()
            .filter(|y| !self.pipelines.contains_key(y))
            .collect();
        if !missing.is_empty() {
            let config = self.config.clone();
            for year in &missing {
                eprintln!("[repro] building GCJ {year} pipeline ...");
            }
            let built =
                pool::parallel_map(missing.clone(), |year| YearPipeline::build(year, &config));
            for (year, p) in missing.iter().zip(&built) {
                report_frontend(*year, p);
            }
            self.pipelines.extend(missing.into_iter().zip(built));
        }
        YEARS.iter().map(|y| &self.pipelines[y]).collect()
    }

    fn run(&mut self, target: &str) {
        match target {
            "table1" => {
                let ps: Vec<YearPipeline> = self.all_pipelines().into_iter().cloned().collect();
                println!("{}", datasets::render_table_i(&datasets::table_i(&ps)));
            }
            "table2" => {
                let ps: Vec<YearPipeline> = self.all_pipelines().into_iter().cloned().collect();
                println!("{}", datasets::render_table_ii(&datasets::table_ii(&ps)));
            }
            "table3" => {
                let ps: Vec<YearPipeline> = self.all_pipelines().into_iter().cloned().collect();
                println!("{}", datasets::render_table_iii(&datasets::table_iii(&ps)));
            }
            "table4" => {
                let results: Vec<styles::StyleCounts> = YEARS
                    .iter()
                    .map(|&y| styles::run(self.pipeline(y)))
                    .collect();
                println!("{}", styles::render(&results));
                let max = results.iter().map(|r| r.max_styles).max().unwrap_or(0);
                println!("max styles observed: {max} (paper: 12)\n");
            }
            "table5" => self.diversity(2017),
            "table6" => self.diversity(2018),
            "table7" => self.diversity(2019),
            "table8" => {
                let results: Vec<attribution::AttributionResult> = YEARS
                    .iter()
                    .map(|&y| attribution::run(self.pipeline(y), attribution::Grouping::Naive))
                    .collect();
                println!("{}", attribution::render_naive(&results));
            }
            "table9" => {
                let results: Vec<attribution::AttributionResult> = YEARS
                    .iter()
                    .map(|&y| {
                        attribution::run(self.pipeline(y), attribution::Grouping::FeatureBased)
                    })
                    .collect();
                println!("{}", attribution::render_feature_based(&results));
            }
            "table10" => {
                let individual: Vec<binary::BinaryResult> = YEARS
                    .iter()
                    .map(|&y| binary::run_individual(self.pipeline(y)))
                    .collect();
                let ps: Vec<YearPipeline> = self.all_pipelines().into_iter().cloned().collect();
                let combined = binary::run_combined(&ps);
                println!("{}", binary::render(&individual, Some(&combined)));
            }
            "figure1" => {
                let p = self.pipeline(2018);
                println!("{}", figures::figure1(p));
            }
            "figure2" => println!("{}", figures::figure2(2018, self.config.seed, 5)),
            "figure3" => {
                println!(
                    "Figure 3 - original code:\n{}",
                    figures::figure3(self.config.seed)
                );
            }
            "figure4" => {
                let [a, b] = figures::figure4(2018, self.config.seed);
                println!("Figure 4a - first NCT transform:\n{a}");
                println!("Figure 4b - second NCT transform:\n{b}");
            }
            "figure5" => {
                let [a, b] = figures::figure5(2018, self.config.seed);
                println!("Figure 5a - first CT transform:\n{a}");
                println!("Figure 5b - second CT transform (of 5a):\n{b}");
            }
            "ablation-features" => self.ablation_features(),
            "ablation-chain" => self.ablation_chain(),
            "ablation-grouping" => self.ablation_grouping(),
            "feature-importance" => self.feature_importance(),
            "all" => {
                for t in [
                    "table1",
                    "table2",
                    "table3",
                    "table4",
                    "table5",
                    "table6",
                    "table7",
                    "table8",
                    "table9",
                    "table10",
                    "figure1",
                    "figure2",
                    "figure3",
                    "figure4",
                    "figure5",
                    "ablation-features",
                    "ablation-chain",
                    "ablation-grouping",
                    "feature-importance",
                ] {
                    self.run(t);
                }
            }
            other => {
                eprintln!("unknown target `{other}`; see --help");
                std::process::exit(2);
            }
        }
    }

    fn diversity(&mut self, year: u32) {
        let d = diversity::run(self.pipeline(year));
        println!("{}", diversity::render(&d));
        println!(
            "top-1 share {:.1}%  top-3 share {:.1}%\n",
            100.0 * d.top_share(),
            100.0 * d.top_k_share(3)
        );
    }

    /// Design-choice ablation: which feature families carry the
    /// attribution signal, and does information-gain selection keep it?
    fn ablation_features(&mut self) {
        let variants: [(&str, FeatureConfig); 4] = [
            ("lexical only", FeatureConfig::lexical_only()),
            ("lex+layout", FeatureConfig::without_syntactic()),
            ("full - dataflow", FeatureConfig::without_dataflow()),
            ("full", FeatureConfig::default()),
        ];
        let mut t = Table::new(vec!["Features", "Dim", "205-class avg", "ChatGPT set avg"])
            .with_title("Ablation: feature families (GCJ 2018, feature-based grouping)");
        for (name, features) in variants {
            let mut cfg = self.config.clone();
            cfg.features = features;
            let p = YearPipeline::build(2018, &cfg);
            let r = attribution::run(&p, attribution::Grouping::FeatureBased);
            t.row(vec![
                name.into(),
                p.oracle.extractor().dim().to_string(),
                format!("{:.1}", 100.0 * r.avg_accuracy()),
                format!("{:.1}", 100.0 * r.chatgpt_pct()),
            ]);
        }
        // Information-gain selection over the full set (the paper's
        // WEKA-style reduction).
        let p = self.pipeline(2018).clone();
        for k in [60usize, 120] {
            let r =
                attribution::run_with_selection(&p, attribution::Grouping::FeatureBased, Some(k));
            t.row(vec![
                format!("full, IG top-{k}"),
                k.to_string(),
                format!("{:.1}", 100.0 * r.avg_accuracy()),
                format!("{:.1}", 100.0 * r.chatgpt_pct()),
            ]);
        }
        println!("{t}");
    }

    /// Design-choice ablation: how fast do CT chains converge as a
    /// function of the stickiness parameter?
    fn ablation_chain(&mut self) {
        let mut t = Table::new(vec!["Stickiness", "Avg distinct styles (50-step CT)"])
            .with_title("Ablation: CT convergence vs stickiness (2018 pool)");
        let seed_src = figures::figure3(self.config.seed);
        for stickiness in [0.5, 0.7, 0.9, 0.95] {
            let mut pool = YearPool::calibrated(2018, self.config.seed);
            pool.ct_stickiness = stickiness;
            let transformer = Transformer::new(&pool);
            let mut totals = 0.0;
            let reps = 6;
            for rep in 0..reps {
                let mut rng =
                    Pcg64::seed_from(self.config.seed, &["ablate-chain", &rep.to_string()]);
                let out = run_ct(
                    &transformer,
                    &seed_src,
                    self.config.scale.transforms,
                    Origin::ChatGpt,
                    &mut rng,
                );
                let styles: Vec<usize> = out.iter().map(|s| s.pool_index).collect();
                totals += distinct_count(&styles) as f64;
            }
            t.row(vec![
                format!("{stickiness:.2}"),
                format!("{:.1}", totals / reps as f64),
            ]);
        }
        println!("{t}");
    }

    /// Which stylistic features give ChatGPT-transformed code away?
    /// Permutation importance of the binary (ChatGPT vs human) task,
    /// reported by feature name.
    fn feature_importance(&mut self) {
        use synthattr_ml::dataset::Dataset;
        use synthattr_ml::importance::top_permutation_features;
        let p = self.pipeline(2018).clone();
        // Balanced binary dataset, subsampled for the analysis forest.
        let mut ds = Dataset::new(2);
        let mut rng = Pcg64::seed_from(self.config.seed, &["importance"]);
        let take = p.transformed.len().min(400);
        for idx in rng.sample_indices(p.transformed.len(), take) {
            ds.push(p.transformed[idx].features.as_ref().clone(), 1);
        }
        for idx in rng.sample_indices(p.corpus.len(), take.min(p.corpus.len())) {
            ds.push(p.human_features[idx].clone(), 0);
        }
        let names = p.oracle.extractor().names();
        let top = top_permutation_features(&ds, 15, &mut rng);
        let mut t = Table::new(vec!["Rank", "Feature", "Permutation importance"])
            .with_title("What gives ChatGPT-transformed code away (GCJ 2018, binary task)");
        for (rank, (f, score)) in top.iter().enumerate() {
            t.row(vec![
                (rank + 1).to_string(),
                names[*f].clone(),
                format!("{score:.4}"),
            ]);
        }
        println!("{t}");
    }

    /// Deterministic cache accounting for every year pipeline this
    /// invocation built, on stdout so `repro_output.txt` records the
    /// single-parse frontend's behaviour. Hit/miss counters are
    /// worker-invariant pure functions of the inputs; wall-clock
    /// timing stays on stderr (see `report_frontend`) because it is
    /// machine-local.
    fn frontend_summary(&self) {
        if self.pipelines.is_empty() {
            return;
        }
        let mut years: Vec<u32> = self.pipelines.keys().copied().collect();
        years.sort_unstable();
        let mut t = Table::new(vec!["Year", "Parses", "Cache hits", "Hit rate"])
            .with_title("Single-parse frontend: artifact cache accounting");
        for year in years {
            let fe = &self.pipelines[&year].frontend;
            t.row(vec![
                year.to_string(),
                fe.cache_misses.to_string(),
                fe.cache_hits.to_string(),
                format!("{:.1}%", 100.0 * fe.hit_rate()),
            ]);
        }
        println!("{t}");
    }

    /// Design-choice ablation: naive vs feature-based grouping across
    /// years (the paper's core comparison, condensed).
    fn ablation_grouping(&mut self) {
        let mut t = Table::new(vec![
            "Year",
            "Naive set",
            "Naive ChatGPT%",
            "FB set",
            "FB ChatGPT%",
        ])
        .with_title("Ablation: grouping strategy");
        for &year in &YEARS {
            let p = self.pipeline(year).clone();
            let naive = attribution::run(&p, attribution::Grouping::Naive);
            let fb = attribution::run(&p, attribution::Grouping::FeatureBased);
            t.row(vec![
                year.to_string(),
                naive.set_size.to_string(),
                format!("{:.1}", 100.0 * naive.chatgpt_pct()),
                fb.set_size.to_string(),
                format!("{:.1}", 100.0 * fb.chatgpt_pct()),
            ]);
        }
        println!("{t}");
    }
}

/// One stderr line per pipeline build: how much of the frontend the
/// artifact cache absorbed, and what the frontend cost on this
/// machine.
fn report_frontend(year: u32, p: &YearPipeline) {
    let fe = &p.frontend;
    eprintln!(
        "[repro] GCJ {year} frontend: {} parses, {} cache hits ({:.1}% hit rate), {:.1} ms",
        fe.cache_misses,
        fe.cache_hits,
        100.0 * fe.hit_rate(),
        fe.frontend_ns as f64 / 1e6
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ExperimentConfig::paper();
    let mut targets = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => config = ExperimentConfig::smoke(),
            "--seed" => {
                i += 1;
                config.seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs an integer");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                println!(
                    "repro [--smoke] [--seed N] <target>...\n\
                     targets: table1..table10 figure1..figure5 \
                     ablation-features ablation-chain ablation-grouping \
                     feature-importance all"
                );
                return;
            }
            t => targets.push(t.to_string()),
        }
        i += 1;
    }
    if targets.is_empty() {
        targets.push("all".into());
    }
    let mut runner = Runner::new(config);
    for t in targets {
        runner.run(&t);
    }
    runner.frontend_summary();
}
