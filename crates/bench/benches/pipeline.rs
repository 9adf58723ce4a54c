//! Whole `YearPipeline` builds, where the frontend dominates:
//!
//! * `cached/plain` — a fault-free build;
//! * `cached/chaos20` — the same build under the recoverable 20% fault
//!   profile, so the resilient drivers and their validation gate run;
//! * `cached/chain` — a chain-heavy build: long CT chains change a
//!   handful of AST sub-trees per step, so the node cache re-renders,
//!   re-parses and re-featurizes only the changed regions.
//!
//! The binary installs [`CountingAllocator`] as its global allocator
//! and the group reports `allocs_per_iter` / `alloc_bytes_per_iter`
//! next to the wall-clock.
//!
//! Feeds `BENCH_pipeline.json` via `scripts/bench.sh`.
//!
//! The config leans frontend-heavy on purpose (many transforms, small
//! forest): oracle training and corpus generation are fixed costs, and
//! the point is to measure the frontend.

use synthattr_bench::alloc_counter::CountingAllocator;
use synthattr_bench::harness::Group;
use synthattr_core::config::ExperimentConfig;
use synthattr_core::pipeline::YearPipeline;
use synthattr_faults::FaultProfile;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Frontend-dominated scale: 1024 transformed samples against a small
/// corpus and a shallow oracle forest.
fn frontend_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::smoke();
    cfg.scale.authors = 8;
    cfg.scale.challenges = 4;
    cfg.scale.transforms = 64;
    cfg.scale.n_trees = 6;
    cfg
}

/// Chain-heavy scale: one challenge with very long streams (256 steps
/// per setting) and a minimal corpus/forest, so the per-step frontend
/// work the node cache amortises dominates the build.
fn chain_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::smoke();
    cfg.scale.authors = 4;
    cfg.scale.challenges = 1;
    cfg.scale.transforms = 256;
    cfg.scale.n_trees = 2;
    cfg
}

fn main() {
    let mut group = Group::new("pipeline");
    group.measure_allocs(true);

    let plain = frontend_config();
    let chaos20 = frontend_config().with_faults(FaultProfile::recoverable(7, 0.20));
    let chain = chain_config().with_faults(FaultProfile::recoverable(7, 0.20));

    for (label, cfg) in [("plain", &plain), ("chaos20", &chaos20), ("chain", &chain)] {
        group.bench(&format!("cached/{label}"), || {
            std::hint::black_box(YearPipeline::try_build(2018, cfg).unwrap());
        });
    }
}
