//! The four workloads. Each exposes `run` (untraced, end-to-end
//! metrics) and `trace` (the traced replay, per-layer metrics).

pub mod chain;
pub mod paper;
pub mod scale;
pub mod serve;

use synthattr_core::pipeline::TransformedEntry;
use synthattr_core::FrontendStats;

use crate::Fnv;

/// Digest of what a pipeline build produced: human and transformed
/// features, transformed sources and oracle labels, and the artifact
/// cache counters. Node-cache counters and wall-clock timing are left
/// out: retries under fault injection revisit sub-trees, so those
/// count work, not results.
pub fn build_digest(
    human_features: &[Vec<f64>],
    transformed: &[TransformedEntry],
    frontend: &FrontendStats,
) -> u64 {
    let mut h = Fnv::default();
    h.u64(human_features.len() as u64);
    for row in human_features {
        for x in row {
            h.u64(x.to_bits());
        }
    }
    h.u64(transformed.len() as u64);
    for t in transformed {
        h.bytes(t.sample.source.as_bytes());
        for x in t.features.iter() {
            h.u64(x.to_bits());
        }
        h.u64(t.oracle_label as u64);
    }
    h.u64(frontend.cache_hits);
    h.u64(frontend.cache_misses);
    h.finish()
}

/// The worker count the program resolves where it runs.
pub fn workers() -> usize {
    synthattr_util::pool::resolve_workers(None)
}
