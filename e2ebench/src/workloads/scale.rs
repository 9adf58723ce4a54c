//! `scale`: the out-of-core path. `stream_year` feeds
//! `FeatureExtractor::extract`, the rows go to two on-disk column
//! stores (train plus a one-per-author hold-out), `fit_sharded` trains
//! from the train store, and the hold-out is streamed back and scored
//! with `predict`. Nothing is cached or transformed, so this workload
//! bypasses every frontend cache.
//!
//! Set-up is a warm-up pass at one streaming chunk's worth of authors
//! (thread pool, allocator and page cache warm). Check: the row counts
//! are exact, hold-out accuracy equals the value recorded for seed 0
//! (and stays sane and identical across passes for other seeds).

use std::path::{Path, PathBuf};
use std::time::Instant;

use synthattr_features::{FeatureConfig, FeatureExtractor};
use synthattr_gen::corpus::{stream_year, YearSpec};
use synthattr_ml::colstore::{ColumnStore, ColumnStoreWriter};
use synthattr_ml::cv::reservoir_holdout;
use synthattr_ml::forest::{ForestConfig, RandomForest};
use synthattr_ml::source::for_each_row;
use synthattr_util::{pool, Pcg64};

use super::workers;
use crate::trace::Tracer;
use crate::{layer_values, repeat_setup, EndToEnd, LayerValues, Opts, Report};

const YEAR: u32 = 2018;
const AUTHORS: usize = 2048;
const WARMUP_AUTHORS: usize = 256;
const CHALLENGES: usize = 6;
const CHUNK_AUTHORS: usize = 256;
const CHUNK_ROWS: usize = 1024;
const N_TREES: usize = 96;
const N_SHARDS: usize = 8;
const SETUP_REPS: usize = 3;
/// Hold-out hits recorded for seed 0 at `AUTHORS` authors.
const SEED0_CORRECT: Option<usize> = Some(1022);

/// What one pass produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Outcome {
    train_rows: usize,
    test_rows: usize,
    correct: usize,
}

struct Stores {
    train: PathBuf,
    test: PathBuf,
}

impl Stores {
    fn new(dir: &Path, tag: &str) -> Stores {
        std::fs::create_dir_all(dir).expect("create the scratch directory");
        let name = |kind: &str| dir.join(format!("scale-{}-{tag}-{kind}.cols", std::process::id()));
        Stores {
            train: name("train"),
            test: name("test"),
        }
    }

    fn bytes(&self) -> u64 {
        [&self.train, &self.test]
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum()
    }
}

impl Drop for Stores {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.train);
        let _ = std::fs::remove_file(&self.test);
    }
}

fn seed_of(seed: u64) -> u64 {
    0x5CA1_E000_u64.wrapping_add(seed)
}

/// Marks which rows (author-major order) go to the hold-out store.
fn holdout(authors: usize, seed: u64) -> Vec<bool> {
    let fold = reservoir_holdout(
        (0..authors).flat_map(|a| std::iter::repeat_n(a, CHALLENGES)),
        authors,
        1,
        Pcg64::seed_from(seed, &["scale-fold", &authors.to_string()]),
    );
    let mut in_test = vec![false; authors * CHALLENGES];
    for &i in &fold.test {
        in_test[i] = true;
    }
    in_test
}

fn forest_config() -> ForestConfig {
    ForestConfig {
        n_trees: N_TREES,
        ..ForestConfig::default()
    }
}

/// Hold-out rows per timed scoring operation: single `predict` calls
/// take microseconds, so their timings mostly measure timer and
/// scheduler noise; blocks report the mean per-row time of each block.
const OP_ROWS: usize = 16;

/// One untraced pass: parallel featurization as in the scale bench,
/// block-timed scoring. Returns the outcome and the eval seconds.
fn pass(authors: usize, seed: u64, stores: &Stores, op_ms: &mut Vec<f64>) -> (Outcome, f64) {
    let spec = YearSpec::tiny(YEAR, authors, CHALLENGES);
    let extractor = FeatureExtractor::new(FeatureConfig::default());
    let in_test = holdout(authors, seed);
    let create = |p: &Path| {
        ColumnStoreWriter::create(p, extractor.dim(), authors, CHUNK_ROWS).expect("create store")
    };
    let (mut train_w, mut test_w) = (create(&stores.train), create(&stores.test));
    let mut row = 0usize;
    for chunk in stream_year(&spec, seed, CHUNK_AUTHORS) {
        let rows = pool::parallel_map_workers(workers(), chunk, |sample| {
            let features = extractor
                .extract(&sample.source)
                .expect("generated sample parses");
            (features, sample.author)
        });
        for (features, label) in rows {
            let w = if in_test[row] {
                &mut test_w
            } else {
                &mut train_w
            };
            w.push_row(&features, label).expect("push row");
            row += 1;
        }
    }
    let train = train_w.finish().expect("finish train store");
    let test = test_w.finish().expect("finish test store");
    let mut rng = Pcg64::seed_from(seed, &["scale-train", &authors.to_string()]);
    let forest = RandomForest::fit_sharded(&train, N_SHARDS, &forest_config(), &mut rng)
        .expect("sharded training");
    let (correct, eval_s) = score(&forest, &test, op_ms);
    let outcome = Outcome {
        train_rows: train.len(),
        test_rows: test.len(),
        correct,
    };
    (outcome, eval_s)
}

fn score(forest: &RandomForest, test: &ColumnStore, op_ms: &mut Vec<f64>) -> (usize, f64) {
    let t0 = Instant::now();
    let (mut correct, mut in_block, mut block) = (0, 0, Instant::now());
    for_each_row(test, CHUNK_ROWS, |features, label| {
        correct += usize::from(forest.predict(features) == label);
        in_block += 1;
        if in_block == OP_ROWS {
            op_ms.push(block.elapsed().as_secs_f64() * 1e3 / OP_ROWS as f64);
            (in_block, block) = (0, Instant::now());
        }
    })
    .expect("stream the hold-out store");
    (correct, t0.elapsed().as_secs_f64())
}

fn check(report: &mut Report, seed: u64, o: &Outcome) {
    report.check(
        o.train_rows + o.test_rows == AUTHORS * CHALLENGES && o.test_rows == AUTHORS,
        "row counts equal authors x challenges, one hold-out row per author",
    );
    match (seed, SEED0_CORRECT) {
        (0, Some(expected)) => report.check(o.correct == expected, "seed-0 hold-out accuracy"),
        _ => report.check(
            o.correct * 5 >= o.test_rows,
            "hold-out accuracy of at least 20%",
        ),
    }
}

pub fn run(opts: &Opts, report: &mut Report) -> EndToEnd {
    let seed = seed_of(opts.seed);
    let stores = Stores::new(&opts.work_dir, "run");
    let ((), setup_s) = repeat_setup(SETUP_REPS, || {
        pass(WARMUP_AUTHORS, seed, &stores, &mut Vec::new());
    });
    let mut op_ms = Vec::new();
    let (passes, cpu_total_s, peak_heap_bytes) =
        crate::measure_passes(opts.seconds, || pass(AUTHORS, seed, &stores, &mut op_ms));
    for (_, (o, _)) in &passes {
        check(report, opts.seed, o);
    }
    let first = passes[0].1 .0;
    report.check(
        passes.iter().all(|(_, (o, _))| *o == first),
        "every pass scores the hold-out identically",
    );
    report.note("holdout_correct", first.correct);
    report.note("holdout_rows", first.test_rows);
    // Scoring takes tens of milliseconds a pass, so the rate pools
    // every pass's rows and seconds rather than taking a median of
    // short, noisy per-pass rates.
    let rows: usize = passes.iter().map(|(_, (o, _))| o.test_rows).sum();
    let eval_s: f64 = passes.iter().map(|(_, (_, s))| s).sum();
    EndToEnd {
        setup_s,
        pass_s: passes.iter().map(|(s, _)| *s).collect(),
        cpu_total_s,
        peak_heap_bytes,
        items_per_s: rows as f64 / eval_s,
        op_ms,
    }
}

/// The same pass, serially, with a span around each layer call.
fn replay(seed: u64, stores: &Stores, tr: &mut Tracer) -> Outcome {
    tr.begin("run", 0);
    let spec = YearSpec::tiny(YEAR, AUTHORS, CHALLENGES);
    let extractor = FeatureExtractor::new(FeatureConfig::default());
    let in_test = holdout(AUTHORS, seed);
    let (mut train_w, mut test_w) = tr.leaf("ml.colstore", 0, || {
        let create = |p: &Path| {
            ColumnStoreWriter::create(p, extractor.dim(), AUTHORS, CHUNK_ROWS)
                .expect("create store")
        };
        (create(&stores.train), create(&stores.test))
    });
    let mut chunks = stream_year(&spec, seed, CHUNK_AUTHORS);
    let mut row = 0usize;
    while let Some(chunk) = tr.leaf("gen", row as u64, || chunks.next()) {
        tr.count("gen.samples", chunk.len() as f64);
        for sample in chunk {
            let request = row as u64;
            let unit = tr
                .leaf("lang", request, || synthattr_lang::parse(&sample.source))
                .expect("generated sample parses");
            let features = tr.leaf("features", request, || {
                extractor.extract_parsed(&sample.source, &unit)
            });
            let w = if in_test[row] {
                &mut test_w
            } else {
                &mut train_w
            };
            tr.leaf("ml.colstore", request, || {
                w.push_row(&features, sample.author)
            })
            .expect("push row");
            row += 1;
        }
    }
    tr.count("lang.parses", row as f64);
    tr.count("features.extracts", row as f64);
    let (train, test) = tr.leaf("ml.colstore", 0, || {
        (
            train_w.finish().expect("finish train store"),
            test_w.finish().expect("finish test store"),
        )
    });
    let mut rng = Pcg64::seed_from(seed, &["scale-train", &AUTHORS.to_string()]);
    let forest = tr
        .leaf("ml.fit", 0, || {
            RandomForest::fit_sharded(&train, N_SHARDS, &forest_config(), &mut rng)
        })
        .expect("sharded training");
    tr.count("ml.fit.calls", 1.0);
    let mut correct = 0usize;
    tr.begin("ml.colstore", 0);
    for_each_row(&test, CHUNK_ROWS, |features, label| {
        let hit = tr.leaf("ml.predict", 0, || forest.predict(features)) == label;
        correct += usize::from(hit);
    })
    .expect("stream the hold-out store");
    tr.end();
    tr.count("ml.predict.rows", test.len() as f64);
    tr.end();
    Outcome {
        train_rows: train.len(),
        test_rows: test.len(),
        correct,
    }
}

pub fn trace(opts: &Opts, report: &mut Report) -> (LayerValues, Tracer) {
    let seed = seed_of(opts.seed);
    let stores = Stores::new(&opts.work_dir, "trace");
    pass(WARMUP_AUTHORS, seed, &stores, &mut Vec::new());
    let (passes, cpu_s, _) =
        crate::measure_passes(0.0, || pass(AUTHORS, seed, &stores, &mut Vec::new()));
    let (wall_s, (untraced, _)) = passes[0];
    check(report, opts.seed, &untraced);

    let t0 = Instant::now();
    let off = replay(seed, &stores, &mut Tracer::new(false));
    let off_s = t0.elapsed().as_secs_f64();
    let mut tr = Tracer::new(true);
    let t0 = Instant::now();
    let on = replay(seed, &stores, &mut tr);
    let on_s = t0.elapsed().as_secs_f64();
    report.check(
        off == untraced && on == untraced,
        "replayed pass equals the untraced pass",
    );

    let mut v = layer_values(&tr);
    for name in [
        "gen.samples",
        "lang.parses",
        "features.extracts",
        "ml.fit.calls",
        "ml.predict.rows",
    ] {
        v.insert(name, tr.counter(name));
    }
    v.insert("ml.colstore.bytes", stores.bytes() as f64);
    v.insert("pool.busy_ratio", cpu_s / (wall_s * workers() as f64));
    v.insert("trace_overhead_pct", crate::overhead_pct(on_s, off_s));
    (v, tr)
}
