//! Analyzer throughput benchmarks: full lint (resolve + passes) and
//! semantic fingerprinting over a generated 2017 corpus.
//!
//! The JSON lines include `units` iterated per measurement so
//! `scripts/bench.sh` (and readers) can derive units/sec from
//! `median_ns`: `units / (median_ns / 1e9)`.

use std::sync::Arc;
use synthattr_analysis::{dead_stores, fingerprint, resolve, use_before_init, Analyzer, Cfg};
use synthattr_bench::harness::Group;
use synthattr_features::incr::ItemFeatures;
use synthattr_features::layout::RegionLayout;
use synthattr_features::{FeatureConfig, FeatureExtractor};
use synthattr_gen::corpus::{generate_year, Origin, YearSpec};
use synthattr_gpt::incr::{try_run_ct_steps_cached, FrontendCache};
use synthattr_gpt::pool::YearPool;
use synthattr_gpt::transform::Transformer;
use synthattr_util::Pcg64;

fn main() {
    let spec = YearSpec::tiny(2017, 32, 4);
    let corpus = generate_year(&spec, 0xBE7C);
    let sources: Vec<&str> = corpus.samples.iter().map(|s| s.source.as_str()).collect();
    let units = sources.len();
    let bytes: usize = sources.iter().map(|s| s.len()).sum();
    let parsed: Vec<_> = sources
        .iter()
        .map(|s| synthattr_lang::parse(s).unwrap())
        .collect();

    eprintln!("analysis bench corpus: {units} units, {bytes} bytes (2017)");

    let mut group = Group::new("analysis");
    group.throughput_bytes(bytes as u64);

    let analyzer = Analyzer::new();
    group.bench(&format!("lint/{units}"), || {
        for s in &sources {
            std::hint::black_box(analyzer.analyze_source(s).unwrap());
        }
    });

    // Pre-parsed paths: what the pipeline gates actually pay.
    group.bench(&format!("lint_preparsed/{units}"), || {
        for u in &parsed {
            std::hint::black_box(analyzer.analyze(u));
        }
    });
    group.bench(&format!("resolve_preparsed/{units}"), || {
        for u in &parsed {
            std::hint::black_box(resolve(u));
        }
    });
    group.bench(&format!("fingerprint_preparsed/{units}"), || {
        for u in &parsed {
            std::hint::black_box(fingerprint(u));
        }
    });

    // Dataflow rows: CFG construction alone, then the full fixed-point
    // verdict path (reaching defs + liveness + definite-uninit walked
    // through `use_before_init` / `dead_stores`) over the same corpus.
    group.bench(&format!("cfg_preparsed/{units}"), || {
        for u in &parsed {
            std::hint::black_box(Cfg::build_all(u));
        }
    });
    group.bench(&format!("dataflow_preparsed/{units}"), || {
        for u in &parsed {
            for cfg in &Cfg::build_all(u) {
                std::hint::black_box(use_before_init(cfg));
                std::hint::black_box(dead_stores(cfg));
            }
        }
    });

    // Cached vs whole-unit dataflow-family extraction over a 256-step
    // CT chain: the workload the incremental frontend actually sees.
    // Each iteration of the cached row starts from a cold per-item
    // cache and shares partials across all 256 steps (chains change a
    // handful of items per step, so most lookups hit); the whole-unit
    // row rebuilds every function's CFG at every step. Both compute
    // the identical df.* vector (proved bit-for-bit by the features
    // crate's parts-vs-whole suite; the golden frontend grid pins it).
    let chain_steps = 256usize;
    let chain_pool = YearPool::calibrated(2018, 5);
    let chain_gpt = Transformer::new(&chain_pool);
    let seed_src = sources[0];
    let seed_unit = synthattr_lang::parse(seed_src).unwrap();
    let steps = {
        let mut rng = Pcg64::new(0xDF_256);
        let mut fc = FrontendCache::new();
        try_run_ct_steps_cached(
            &chain_gpt,
            seed_src,
            &seed_unit,
            chain_steps,
            Origin::ChatGpt,
            &mut rng,
            &mut fc,
        )
        .unwrap()
    };
    let df_only = FeatureConfig {
        lexical: false,
        layout: false,
        syntactic: false,
        ..FeatureConfig::default()
    };
    let ex = FeatureExtractor::new(df_only);

    group.bench(&format!("dataflow_whole/chain{chain_steps}"), || {
        for s in &steps {
            std::hint::black_box(ex.extract_parsed(&s.sample.source, &s.unit));
        }
    });
    group.bench(&format!("dataflow_cached/chain{chain_steps}"), || {
        let mut fc = FrontendCache::new();
        for s in &steps {
            let items: Vec<Arc<ItemFeatures>> = s
                .regions
                .item_hashes
                .iter()
                .zip(&s.unit.items)
                .map(|(&h, item)| fc.item_features_for(h, item))
                .collect();
            std::hint::black_box(ex.extract_from_parts(
                s.sample.source.len(),
                items.iter().map(|a| a.as_ref()),
                std::iter::empty::<(usize, &RegionLayout)>(),
            ));
        }
    });
}
