//! Single-parse frontend artifacts and the content-addressed cache.
//!
//! Before this module existed, every transformed sample crossed the
//! lexer/parser four to five times: the transformer parsed its input,
//! then the lint gate, the semantic fingerprint, the fault-layer
//! response validator, and the feature extractor each re-parsed the
//! identical rendered text. An [`Artifact`] ties one source text to
//! every frontend product the pipeline reads from it — AST,
//! diagnostics, feature vector, oracle label — each materialised
//! lazily and **at most once**. An [`ArtifactCache`]
//! content-addresses artifacts by a 64-bit hash of the source bytes
//! (with full-text collision verification), so two samples with
//! identical text share one artifact and all of its products.
//!
//! Invariants (pinned by the root package's golden frontend grid and
//! its `frontend_cache` suite):
//!
//! * **Purity** — every cached product equals what recomputing it from
//!   the text would produce; the cache can only change *when* work
//!   happens, never *what* it produces.
//! * **Worker invariance** — the pipeline shards caches per dispatch
//!   unit (per human sample, per challenge task), so hit/miss totals
//!   and all outputs are identical for any `SYNTHATTR_WORKERS`.
//! * **Content addressing** — artifacts are keyed by source bytes
//!   alone; provenance (which setting or step produced the text) never
//!   affects sharing.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};
use synthattr_analysis::{Analyzer, Diagnostic};
use synthattr_features::FeatureExtractor;
use synthattr_lang::{parse, ParseError, TranslationUnit};

use crate::model::AuthorshipModel;

/// 64-bit FNV-1a over the source bytes: the cache's content address.
///
/// In-repo (the workspace is hermetic): FNV-1a is tiny, stable across
/// platforms, and fast on the short programs this pipeline handles.
/// Collisions are tolerated, not assumed away — [`ArtifactCache`]
/// verifies full source equality within a bucket.
pub fn content_hash(source: &str) -> u64 {
    synthattr_util::hash::fnv1a(source.as_bytes())
}

/// One source text plus every frontend product derived from it, each
/// computed lazily and at most once.
#[derive(Debug)]
pub struct Artifact {
    source: String,
    unit: OnceLock<Result<TranslationUnit, ParseError>>,
    diagnostics: OnceLock<Arc<Vec<Diagnostic>>>,
    features: OnceLock<Arc<Vec<f64>>>,
    oracle_label: OnceLock<usize>,
}

impl Artifact {
    /// An artifact over `source` with nothing materialised yet.
    pub fn new(source: impl Into<String>) -> Self {
        Artifact {
            source: source.into(),
            unit: OnceLock::new(),
            diagnostics: OnceLock::new(),
            features: OnceLock::new(),
            oracle_label: OnceLock::new(),
        }
    }

    /// An artifact over `source` whose AST is already known — the
    /// single-parse handoff from the transform layer, which parses
    /// each rendered output inside its validation gate. `unit` must be
    /// exactly `parse(source)`.
    pub fn with_unit(source: impl Into<String>, unit: TranslationUnit) -> Self {
        let artifact = Artifact::new(source);
        artifact
            .unit
            .set(Ok(unit))
            .expect("fresh artifact has no unit");
        artifact
    }

    /// The source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The AST, parsed on first call (or supplied at construction).
    ///
    /// # Errors
    ///
    /// The parser's [`ParseError`] if the text is outside the subset.
    pub fn unit(&self) -> Result<&TranslationUnit, ParseError> {
        match self.unit.get_or_init(|| parse(&self.source)) {
            Ok(u) => Ok(u),
            Err(e) => Err(e.clone()),
        }
    }

    /// Analyzer diagnostics, computed on first call.
    ///
    /// # Errors
    ///
    /// Propagates [`Artifact::unit`]'s parse error.
    pub fn diagnostics(&self, analyzer: &Analyzer) -> Result<&[Diagnostic], ParseError> {
        if let Some(d) = self.diagnostics.get() {
            return Ok(d);
        }
        let unit = self.unit()?;
        Ok(self
            .diagnostics
            .get_or_init(|| Arc::new(analyzer.analyze(unit))))
    }

    /// Like [`Artifact::diagnostics`], but the first call computes the
    /// diagnostics via `compute` — the incremental frontend's hook for
    /// serving the analyzer pass from a sub-tree cache without deep
    /// copies (the node cache and the artifact share one allocation).
    /// `compute` must return exactly `analyzer.analyze(unit)` for the
    /// artifact's own unit; purity of the slot is the caller's
    /// contract.
    ///
    /// # Errors
    ///
    /// Propagates [`Artifact::unit`]'s parse error.
    pub fn diagnostics_with(
        &self,
        compute: impl FnOnce(&TranslationUnit) -> Arc<Vec<Diagnostic>>,
    ) -> Result<&[Diagnostic], ParseError> {
        if let Some(d) = self.diagnostics.get() {
            return Ok(d);
        }
        let unit = self.unit()?;
        Ok(self.diagnostics.get_or_init(|| compute(unit)))
    }

    /// The stylometry feature vector, computed on first call.
    ///
    /// All callers within one pipeline share one extractor
    /// configuration, which is what makes a per-source cache slot
    /// sound; mixing extractors against one artifact would return the
    /// first caller's vector to everyone.
    ///
    /// # Errors
    ///
    /// Propagates [`Artifact::unit`]'s parse error.
    pub fn features(&self, extractor: &FeatureExtractor) -> Result<&Arc<Vec<f64>>, ParseError> {
        if let Some(f) = self.features.get() {
            return Ok(f);
        }
        let unit = self.unit()?;
        Ok(self
            .features
            .get_or_init(|| Arc::new(extractor.extract_parsed(&self.source, unit))))
    }

    /// Like [`Artifact::features`], but the first call computes the
    /// vector via `compute` — the incremental frontend's hook for
    /// assembling features from cached sub-tree partials. `compute`
    /// must return exactly `extractor.extract_parsed(source, unit)`
    /// for the pipeline's one extractor configuration; purity of the
    /// slot is the caller's contract.
    ///
    /// # Errors
    ///
    /// Propagates [`Artifact::unit`]'s parse error.
    pub fn features_with(
        &self,
        compute: impl FnOnce(&str, &TranslationUnit) -> Vec<f64>,
    ) -> Result<&Arc<Vec<f64>>, ParseError> {
        if let Some(f) = self.features.get() {
            return Ok(f);
        }
        let unit = self.unit()?;
        Ok(self
            .features
            .get_or_init(|| Arc::new(compute(&self.source, unit))))
    }

    /// The oracle's predicted label, computed on first call (features
    /// materialise first if needed). Same single-configuration caveat
    /// as [`Artifact::features`].
    ///
    /// # Errors
    ///
    /// Propagates [`Artifact::unit`]'s parse error.
    pub fn oracle_label(&self, model: &AuthorshipModel) -> Result<usize, ParseError> {
        if let Some(l) = self.oracle_label.get() {
            return Ok(*l);
        }
        let features = Arc::clone(self.features(model.extractor())?);
        Ok(*self
            .oracle_label
            .get_or_init(|| model.predict_features(&features)))
    }
}

/// Frontend accounting for one pipeline build, merged across dispatch
/// units in input order.
///
/// `cache_misses` counts distinct sources materialised (each paid for
/// its frontend work exactly once); `cache_hits` counts the re-parses
/// the cache avoided. `node_hits`/`node_misses` count AST sub-tree
/// lookups in the incremental frontend. Equality deliberately ignores
/// `frontend_ns` —
/// wall-clock varies run to run, the counters must not.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrontendStats {
    /// Requests served by an existing artifact.
    pub cache_hits: u64,
    /// Requests that materialised a new artifact.
    pub cache_misses: u64,
    /// Sub-tree lookups served by the incremental node cache.
    pub node_hits: u64,
    /// Sub-tree lookups that computed a new node product.
    pub node_misses: u64,
    /// Wall-clock nanoseconds spent in frontend work (parse, lint,
    /// fingerprint, featurize), summed over dispatch units.
    pub frontend_ns: u128,
}

impl PartialEq for FrontendStats {
    fn eq(&self, other: &Self) -> bool {
        self.cache_hits == other.cache_hits
            && self.cache_misses == other.cache_misses
            && self.node_hits == other.node_hits
            && self.node_misses == other.node_misses
    }
}

impl FrontendStats {
    /// Folds another dispatch unit's stats into this one.
    pub fn merge(&mut self, other: &FrontendStats) {
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.node_hits += other.node_hits;
        self.node_misses += other.node_misses;
        self.frontend_ns += other.frontend_ns;
    }

    /// Fraction of artifact requests served from cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / total as f64
    }
}

/// One resident cache entry: the artifact plus the recency tick of its
/// last access.
#[derive(Debug)]
struct CacheEntry {
    artifact: Arc<Artifact>,
    tick: u64,
}

/// A content-addressed artifact cache: 64-bit source hash → artifacts,
/// with full-text verification inside each bucket, capped at a
/// capacity with least-recently-used eviction.
///
/// The pipeline's per-dispatch-unit shards and the serving layer's
/// long-lived shared cache both use it. Eviction changes only
/// *residency*, never *results*: a re-interned evicted source is a
/// fresh miss that recomputes identical products (purity), and while
/// the capacity covers every distinct source, misses count the
/// distinct sources and hits the requests beyond them.
///
/// Recency is a monotonic access tick per entry plus a tick-ordered
/// index, so both touch and evict are `O(log n)`.
///
/// Not a global structure in the pipeline: one shard per dispatch unit
/// (per human sample, per challenge task) keeps hit/miss totals a pure
/// function of the inputs, never of scheduling.
#[derive(Debug)]
pub struct ArtifactCache {
    buckets: HashMap<u64, Vec<CacheEntry>>,
    /// At most this many entries stay resident.
    capacity: usize,
    /// Resident entry count across all buckets.
    entries: usize,
    /// Monotonic access clock; bumped on every intern.
    tick: u64,
    /// Recency index: access tick → bucket hash.
    recency: BTreeMap<u64, u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ArtifactCache {
    /// An empty LRU cache holding at most `capacity` artifacts
    /// (clamped to at least 1).
    pub fn bounded(capacity: usize) -> Self {
        ArtifactCache {
            buckets: HashMap::new(),
            capacity: capacity.max(1),
            entries: 0,
            tick: 0,
            recency: BTreeMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Returns the artifact for `source`, creating it on first sight.
    pub fn intern(&mut self, source: &str) -> Arc<Artifact> {
        if let Some(existing) = self.lookup_touch(source) {
            self.hits += 1;
            return existing;
        }
        self.insert(Arc::new(Artifact::new(source)))
    }

    /// Returns the artifact for `source`, seeding its AST with `unit`
    /// on first sight (the transform layer already parsed it; a miss
    /// here records a new distinct source but costs no parse). `unit`
    /// must be exactly `parse(&source)`.
    pub fn intern_with_unit(&mut self, source: &str, unit: TranslationUnit) -> Arc<Artifact> {
        if let Some(existing) = self.lookup_touch(source) {
            self.hits += 1;
            return existing;
        }
        self.insert(Arc::new(Artifact::with_unit(source.to_string(), unit)))
    }

    /// Requests served by an existing artifact.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Requests that materialised a new artifact.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Artifacts evicted by the LRU policy.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Artifacts currently resident.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the cache holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// The LRU capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// This cache's counters as mergeable stats (zero wall-clock; the
    /// pipeline times frontend work around its cache calls).
    pub fn stats(&self) -> FrontendStats {
        FrontendStats {
            cache_hits: self.hits,
            cache_misses: self.misses,
            node_hits: 0,
            node_misses: 0,
            frontend_ns: 0,
        }
    }

    /// Looks up `source` and marks the entry most-recently-used.
    fn lookup_touch(&mut self, source: &str) -> Option<Arc<Artifact>> {
        let hash = content_hash(source);
        self.tick += 1;
        let new_tick = self.tick;
        let (artifact, old_tick) = {
            let bucket = self.buckets.get_mut(&hash)?;
            let entry = bucket.iter_mut().find(|e| e.artifact.source() == source)?;
            let old = entry.tick;
            entry.tick = new_tick;
            (Arc::clone(&entry.artifact), old)
        };
        self.recency.remove(&old_tick);
        self.recency.insert(new_tick, hash);
        Some(artifact)
    }

    fn insert(&mut self, artifact: Arc<Artifact>) -> Arc<Artifact> {
        self.misses += 1;
        self.tick += 1;
        let tick = self.tick;
        let hash = content_hash(artifact.source());
        self.buckets.entry(hash).or_default().push(CacheEntry {
            artifact: Arc::clone(&artifact),
            tick,
        });
        self.entries += 1;
        self.recency.insert(tick, hash);
        // The fresh entry carries the newest tick, so with capacity >= 1
        // it is never the one evicted.
        while self.entries > self.capacity {
            self.evict_lru();
        }
        artifact
    }

    /// Removes the least-recently-used entry.
    fn evict_lru(&mut self) {
        let Some((&tick, &hash)) = self.recency.iter().next() else {
            return;
        };
        self.recency.remove(&tick);
        if let Some(bucket) = self.buckets.get_mut(&hash) {
            if let Some(pos) = bucket.iter().position(|e| e.tick == tick) {
                bucket.remove(pos);
                self.entries -= 1;
                self.evictions += 1;
            }
            if bucket.is_empty() {
                self.buckets.remove(&hash);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthattr_analysis::Analyzer;
    use synthattr_features::FeatureConfig;

    const SRC: &str = "int main() { int x = 0; x = x + 1; return 0; }";

    #[test]
    fn content_hash_is_stable_and_text_sensitive() {
        assert_eq!(content_hash(SRC), content_hash(SRC));
        assert_ne!(content_hash(SRC), content_hash("int main() { return 0; }"));
        // Known FNV-1a vector: hashing the empty string yields the
        // offset basis.
        assert_eq!(content_hash(""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn artifact_products_match_from_scratch_computation() {
        let analyzer = Analyzer::new();
        let extractor = FeatureExtractor::new(FeatureConfig::default());
        let a = Artifact::new(SRC);
        assert_eq!(a.unit().unwrap(), &parse(SRC).unwrap());
        assert_eq!(
            a.diagnostics(&analyzer).unwrap(),
            &analyzer.analyze_source(SRC).unwrap()[..]
        );
        assert_eq!(
            a.features(&extractor).unwrap().as_slice(),
            &extractor.extract(SRC).unwrap()[..]
        );
    }

    #[test]
    fn with_unit_skips_the_parse_but_changes_nothing() {
        let unit = parse(SRC).unwrap();
        let seeded = Artifact::with_unit(SRC, unit.clone());
        let fresh = Artifact::new(SRC);
        let analyzer = Analyzer::new();
        assert_eq!(seeded.unit().unwrap(), fresh.unit().unwrap());
        assert_eq!(
            seeded.diagnostics(&analyzer).unwrap(),
            fresh.diagnostics(&analyzer).unwrap()
        );
        assert_eq!(seeded.unit().unwrap(), &unit);
    }

    #[test]
    fn products_are_computed_once_and_shared() {
        let a = Artifact::new(SRC);
        let first = a.unit().unwrap() as *const TranslationUnit;
        let second = a.unit().unwrap() as *const TranslationUnit;
        assert_eq!(first, second, "repeat calls return the same storage");
    }

    #[test]
    fn parse_errors_are_reported_and_sticky() {
        let a = Artifact::new("int main( {");
        assert!(a.unit().is_err());
        assert!(a
            .features(&FeatureExtractor::new(FeatureConfig::default()))
            .is_err());
        let analyzer = Analyzer::new();
        assert!(a.diagnostics(&analyzer).is_err());
    }

    #[test]
    fn cache_shares_identical_sources_and_counts() {
        let mut cache = ArtifactCache::bounded(4);
        let a = cache.intern(SRC);
        let b = cache.intern(SRC);
        let c = cache.intern("int main() { return 1; }");
        assert!(Arc::ptr_eq(&a, &b), "identical text shares one artifact");
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.stats().hit_rate(), 1.0 / 3.0);
    }

    #[test]
    fn intern_with_unit_dedups_against_plain_interns() {
        let mut cache = ArtifactCache::bounded(4);
        let a = cache.intern(SRC);
        let b = cache.intern_with_unit(SRC, parse(SRC).unwrap());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    /// Distinct valid sources for cache-churn tests.
    fn source(i: usize) -> String {
        format!("int main() {{ int v{i} = {i}; return v{i}; }}")
    }

    #[test]
    fn bounded_cache_never_exceeds_capacity_and_counts_evictions() {
        let mut cache = ArtifactCache::bounded(4);
        for i in 0..20 {
            cache.intern(&source(i));
            assert!(cache.len() <= 4, "resident {} > capacity", cache.len());
        }
        assert_eq!(cache.misses(), 20);
        assert_eq!(cache.evictions(), 16);
        assert_eq!(cache.len(), 4);
        // The survivors are the four most recent inserts.
        for i in 16..20 {
            cache.intern(&source(i));
        }
        assert_eq!(cache.hits(), 4);
        assert_eq!(cache.evictions(), 16, "re-hits evict nothing");
    }

    #[test]
    fn lru_eviction_order_respects_touches() {
        let mut cache = ArtifactCache::bounded(2);
        cache.intern(&source(0));
        cache.intern(&source(1));
        // Touch 0 so 1 becomes least-recently-used.
        cache.intern(&source(0));
        cache.intern(&source(2)); // evicts 1
        assert_eq!(cache.evictions(), 1);
        cache.intern(&source(0));
        assert_eq!(cache.hits(), 2, "0 survived the eviction");
        cache.intern(&source(1));
        assert_eq!(cache.misses(), 4, "1 was evicted and re-materialises");
    }

    #[test]
    fn eviction_changes_residency_never_results() {
        // Purity across churn: an evicted-and-reinterned source yields
        // a fresh artifact whose products equal the original's.
        let analyzer = Analyzer::new();
        let mut cache = ArtifactCache::bounded(1);
        let first = cache.intern(SRC);
        let diags = first.diagnostics(&analyzer).unwrap().to_vec();
        cache.intern(&source(7)); // evicts SRC
        let again = cache.intern(SRC);
        assert!(!Arc::ptr_eq(&first, &again), "distinct storage after churn");
        assert_eq!(again.diagnostics(&analyzer).unwrap(), &diags[..]);
        assert_eq!(again.unit().unwrap(), first.unit().unwrap());
    }

    #[test]
    fn generous_capacity_counts_each_distinct_source_as_one_miss() {
        // An access sequence (with repeats) through a cache whose
        // capacity covers every distinct source evicts nothing, so
        // misses = distinct texts and hits = requests - misses.
        let sequence: Vec<String> = (0..30).map(|i| source(i % 10)).collect();
        let mut cache = ArtifactCache::bounded(10);
        for s in &sequence {
            cache.intern(s);
        }
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.misses(), 10);
        assert_eq!(cache.hits(), 30 - 10);
        assert_eq!(cache.len(), 10);
    }

    #[test]
    fn cache_reports_len_and_capacity() {
        let mut cache = ArtifactCache::bounded(4);
        assert!(cache.is_empty());
        cache.intern(SRC);
        cache.intern(SRC);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.capacity(), 4);
        assert_eq!(ArtifactCache::bounded(0).capacity(), 1);
    }

    #[test]
    fn frontend_stats_merge_and_ignore_wallclock_in_eq() {
        let mut a = FrontendStats {
            cache_hits: 2,
            cache_misses: 3,
            node_hits: 10,
            node_misses: 4,
            frontend_ns: 100,
        };
        let b = FrontendStats {
            cache_hits: 1,
            cache_misses: 1,
            node_hits: 5,
            node_misses: 2,
            frontend_ns: 999,
        };
        a.merge(&b);
        assert_eq!(a.cache_hits, 3);
        assert_eq!(a.cache_misses, 4);
        assert_eq!(a.node_hits, 15);
        assert_eq!(a.node_misses, 6);
        assert_eq!(a.frontend_ns, 1099);
        let c = FrontendStats {
            cache_hits: 3,
            cache_misses: 4,
            node_hits: 15,
            node_misses: 6,
            frontend_ns: 0,
        };
        assert_eq!(a, c, "equality is on counters, not wall-clock");
        let mut d = c;
        d.node_hits = 0;
        assert_ne!(a, d, "node counters participate in equality");
        assert!((a.hit_rate() - 3.0 / 7.0).abs() < 1e-12);
    }
}
