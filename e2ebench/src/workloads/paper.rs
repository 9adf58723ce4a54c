//! `paper`: the three paper-scale year pipelines (set-up), then Tables
//! VIII and IX (the measured pass) — the run a user of the
//! reproduction waits on. Forest training does most of the work.
//!
//! Seed `n` runs the paper configuration with its root seed moved by
//! `n`; seed 0 is the committed configuration, whose rendered tables
//! must match `repro_output.txt` byte for byte.

use std::time::Instant;

use synthattr_core::config::ExperimentConfig;
use synthattr_core::experiments::attribution::{self, AttributionResult, Grouping};
use synthattr_core::pipeline::{Setting, YearPipeline};
use synthattr_ml::cv::group_folds;
use synthattr_ml::dataset::Dataset;
use synthattr_ml::forest::RandomForest;
use synthattr_ml::metrics::accuracy;
use synthattr_util::stats::ranked_histogram;
use synthattr_util::{pool, Pcg64};

use super::workers;
use crate::trace::Tracer;
use crate::{
    layer_values, measure_passes, repeat_setup, stats, EndToEnd, LayerValues, Opts, Report,
};

const YEARS: [u32; 3] = [2017, 2018, 2019];
const GROUPINGS: [Grouping; 2] = [Grouping::Naive, Grouping::FeatureBased];
const SETUP_REPS: usize = 3;

fn config(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper();
    cfg.seed = cfg.seed.wrapping_add(seed);
    cfg
}

fn build_pipelines(cfg: &ExperimentConfig) -> Vec<YearPipeline> {
    pool::parallel_map(YEARS.to_vec(), |year| YearPipeline::build(year, cfg))
}

/// Tables VIII and IX as rendered text, plus the rows classified.
#[derive(Debug, Clone, PartialEq)]
struct Tables {
    t8: String,
    t9: String,
    rows: usize,
}

fn render(results: &[AttributionResult], pipelines: &[YearPipeline]) -> Tables {
    let (naive, feature) = results.split_at(YEARS.len());
    let rows = results
        .iter()
        .zip(pipelines.iter().cycle())
        .map(|(r, p)| p.corpus.len() + r.set_size)
        .sum();
    Tables {
        t8: attribution::render_naive(naive).to_string(),
        t9: attribution::render_feature_based(feature).to_string(),
        rows,
    }
}

/// One measured pass: every (grouping, year) attribution, timing each.
fn tables(pipelines: &[YearPipeline], op_ms: &mut Vec<f64>) -> (Tables, Vec<AttributionResult>) {
    let mut results = Vec::new();
    for grouping in GROUPINGS {
        for p in pipelines {
            let t0 = Instant::now();
            results.push(attribution::run(p, grouping));
            op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    (render(&results, pipelines), results)
}

/// The Table VIII and IX blocks of `repro_output.txt`, when present.
fn committed_tables() -> Option<(String, String)> {
    let text = std::fs::read_to_string("repro_output.txt").ok()?;
    let block = |title: &str| {
        let start = text.find(title)?;
        let body = &text[start..];
        let end = body.find("\n\n").unwrap_or(body.len());
        Some(body[..end].to_string())
    };
    Some((block("Table VIII:")?, block("Table IX:")?))
}

fn check(report: &mut Report, seed: u64, t: &Tables, results: &[AttributionResult]) {
    if seed == 0 {
        let ok = committed_tables()
            .is_some_and(|(t8, t9)| t.t8.trim_end() == t8 && t.t9.trim_end() == t9);
        report.check(ok, "Tables VIII/IX equal repro_output.txt");
    } else {
        let sane = results.iter().all(|r| {
            r.fold_accuracy.len() == 8
                && r.fold_accuracy.iter().all(|a| (0.0..=1.0).contains(a))
                && r.avg_accuracy() > 0.5
        });
        report.check(
            sane,
            "Tables VIII/IX: 8 folds per year, 205-class accuracy above 50%",
        );
    }
}

pub fn run(opts: &Opts, report: &mut Report) -> EndToEnd {
    let cfg = config(opts.seed);
    let (pipelines, setup_s) = repeat_setup(SETUP_REPS, || build_pipelines(&cfg));
    let mut op_ms = Vec::new();
    let (passes, cpu_total_s, peak_heap_bytes) =
        measure_passes(opts.seconds, || tables(&pipelines, &mut op_ms));
    for (_, (t, results)) in &passes {
        check(report, opts.seed, t, results);
    }
    let first = &passes[0].1 .0;
    report.check(
        passes.iter().all(|(_, (t, _))| t == first),
        "every pass renders identical tables",
    );
    let pass_s: Vec<f64> = passes.iter().map(|(s, _)| *s).collect();
    EndToEnd {
        items_per_s: first.rows as f64 / stats::median(&pass_s),
        setup_s,
        pass_s,
        cpu_total_s,
        peak_heap_bytes,
        op_ms,
    }
}

/// Mirrors `attribution::run` step by step through the `ml` entry
/// points, with spans around dataset assembly, training and prediction.
fn replay_attribution(p: &YearPipeline, grouping: Grouping, tr: &mut Tracer) -> AttributionResult {
    tr.begin("core", 0);
    let labels = p.all_labels();
    let target_label = ranked_histogram(&labels)
        .first()
        .map(|(l, _)| *l)
        .expect("transformed set is non-empty");
    let set: Vec<usize> = p
        .transformed
        .iter()
        .enumerate()
        .filter(|(_, t)| match grouping {
            Grouping::Naive => t.sample.step == 1 && t.setting == Setting::GptNct,
            Grouping::FeatureBased => t.oracle_label == target_label,
        })
        .map(|(i, _)| i)
        .collect();
    let gpt_class = p.n_authors();
    let mut ds = Dataset::new(gpt_class + 1);
    let mut groups = Vec::new();
    for (sample, features) in p.corpus.samples.iter().zip(&p.human_features) {
        ds.push(features.clone(), sample.author);
        groups.push(sample.challenge);
    }
    for &i in &set {
        let entry = &p.transformed[i];
        ds.push(entry.features.as_ref().clone(), gpt_class);
        groups.push(entry.challenge);
    }
    let folds = group_folds(&groups);
    tr.end();

    let recognized = |pred: &[usize], truth: &[usize], class: usize| {
        let total = truth.iter().filter(|&&t| t == class).count();
        let correct = pred
            .iter()
            .zip(truth)
            .filter(|(p, t)| **t == class && **p == class)
            .count();
        total == 0 || correct * 2 >= total
    };
    let tag = if grouping == Grouping::Naive {
        "naive"
    } else {
        "feature"
    };
    let (mut fold_accuracy, mut chatgpt_ok, mut target_ok) = (Vec::new(), Vec::new(), Vec::new());
    for (fi, fold) in folds.iter().enumerate() {
        let request = fi as u64;
        let train = tr.leaf("core", request, || ds.subset(&fold.train));
        let mut rng = Pcg64::seed_from(
            p.config.seed,
            &["attribution", &p.year.to_string(), tag, &fi.to_string()],
        );
        let forest = tr.leaf("ml.fit", request, || {
            RandomForest::fit(&train, &p.config.forest(), &mut rng)
        });
        tr.count("ml.fit.calls", 1.0);
        let (truth, rows) = tr.leaf("core", request, || {
            let truth: Vec<usize> = fold.test.iter().map(|&i| ds.label(i)).collect();
            let rows: Vec<&[f64]> = fold.test.iter().map(|&i| ds.row(i)).collect();
            (truth, rows)
        });
        let pred = tr.leaf("ml.predict", request, || forest.predict_batch(&rows));
        tr.count("ml.predict.rows", rows.len() as f64);
        fold_accuracy.push(accuracy(&pred, &truth));
        chatgpt_ok.push(recognized(&pred, &truth, gpt_class));
        target_ok.push(recognized(&pred, &truth, target_label));
    }
    AttributionResult {
        year: p.year,
        grouping,
        fold_accuracy,
        chatgpt_ok,
        target_ok: (grouping == Grouping::FeatureBased).then_some(target_ok),
        target_label,
        set_size: set.len(),
    }
}

fn replay(pipelines: &[YearPipeline], tr: &mut Tracer) -> (Tables, f64) {
    let t0 = Instant::now();
    tr.begin("run", 0);
    let mut results = Vec::new();
    for grouping in GROUPINGS {
        for p in pipelines {
            results.push(replay_attribution(p, grouping, tr));
        }
    }
    tr.end();
    let wall = t0.elapsed().as_secs_f64();
    (render(&results, pipelines), wall)
}

pub fn trace(opts: &Opts, report: &mut Report) -> (LayerValues, Tracer) {
    let cfg = config(opts.seed);
    let pipelines = build_pipelines(&cfg);
    let mut scratch = Vec::new();
    let (passes, cpu_s, _) = measure_passes(0.0, || tables(&pipelines, &mut scratch));
    let (wall_s, (untraced, results)) = &passes[0];
    check(report, opts.seed, untraced, results);

    // The replay runs the same folds in the same order, with the same
    // parallelism inside each fit, as `attribution::run`, so the
    // untraced pass is the baseline for the tracing overhead.
    let mut tr = Tracer::new(true);
    let (on_tables, on_s) = replay(&pipelines, &mut tr);
    report.check(
        &on_tables == untraced,
        "replayed tables equal the untraced run's",
    );

    let mut v = layer_values(&tr);
    v.insert("ml.fit.calls", tr.counter("ml.fit.calls"));
    v.insert("ml.predict.rows", tr.counter("ml.predict.rows"));
    v.insert("pool.busy_ratio", cpu_s / (wall_s * workers() as f64));
    v.insert("trace_overhead_pct", crate::overhead_pct(on_s, *wall_s));
    (v, tr)
}
