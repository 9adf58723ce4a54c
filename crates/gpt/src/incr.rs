//! Node-level incremental frontend for transformation chains.
//!
//! A CT chain step rewrites only a few top-level items of its
//! predecessor — measured over the calibrated pools, ~91% of item ASTs
//! and ~81% of rendered region bytes recur across a 64-step chain.
//! Run from scratch, a step re-renders, re-detects, re-parses and
//! re-featurizes every byte. This module keys each of those products
//! at the *node* (top-level item / rendered region) level so unchanged
//! sub-trees are shared across steps:
//!
//! * [`FrontendCache`] — the per-dispatch-unit node cache: rendered
//!   item text by `(item structural hash, style)`, per-item feature
//!   partials, one [`RegionLayout`] scan per region text, and
//!   whole-unit diagnostics/fingerprints by unit structural hash. A
//!   region's scan feeds both its layout features and the layout
//!   detection of the step that transforms it
//!   ([`detect_with_regions`]);
//! * [`transform_step_cached`] — one chain step through the caches,
//!   consuming the exact RNG stream of
//!   [`Transformer::transform`] and producing byte-identical
//!   text plus a parsed unit equal to `parse(text)` (handed through
//!   from the rewrite — the renderer is the parser's inverse on the
//!   rewriter's AST subset, so the step never re-parses its own
//!   render);
//! * [`try_run_nct_steps_cached`] / [`try_run_ct_steps_cached`] —
//!   the fault-free chain drivers, byte-identical to
//!   [`try_run_nct`](crate::chain::try_run_nct) /
//!   [`try_run_ct`](crate::chain::try_run_ct), returning each step's
//!   [`RegionInfo`] so downstream stages can featurize incrementally.
//!
//! Collision policy (DESIGN.md §12): text-keyed caches are exact by
//! construction; 64-bit structural-hash caches are trusted in release
//! and re-verified by the per-call `debug_assert`s below, which the
//! root package's golden frontend grid (`tests/frontend_golden.rs`)
//! runs in debug builds.

use crate::error::GptError;
use crate::transform::{detect_render_style, Transformer};
use std::collections::HashMap;
use std::sync::Arc;
use synthattr_analysis::{fingerprint, Analyzer, Diagnostic};
use synthattr_features::incr::ItemFeatures;
use synthattr_features::layout::RegionLayout;
use synthattr_lang::ast::Item;
use synthattr_lang::hash::{item_hash, unit_hash_of};
use synthattr_lang::render::{render_item_text, separator_plan, RegionSpan, RenderStyle};
use synthattr_lang::{parse, TranslationUnit};
use synthattr_util::Pcg64;

// ---------------------------------------------------------------------------
// Step metadata
// ---------------------------------------------------------------------------

/// Node-level structure of one rendered step: the region spans tiling
/// the text, the structural hash of each region's parsed item, and the
/// whole-unit hash folded from them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionInfo {
    /// One span per top-level item, tiling the source text.
    pub spans: Vec<RegionSpan>,
    /// Structural hash of each region's parsed item, aligned with
    /// `spans` and with the unit's `items`.
    pub item_hashes: Vec<u64>,
    /// `unit_hash_of(&item_hashes)`.
    pub unit_hash: u64,
}

/// One chain step produced through the node caches: rendered text, the
/// unit `parse(source)` would produce, and the step's region structure.
#[derive(Debug, Clone)]
pub struct StepFrontend {
    /// The rendered step text (byte-identical to the whole-file path).
    pub source: String,
    /// The parsed unit, equal to `parse(&source)`.
    pub unit: TranslationUnit,
    /// Node-level structure of `source`.
    pub regions: RegionInfo,
}

// ---------------------------------------------------------------------------
// The node cache
// ---------------------------------------------------------------------------

/// Per-dispatch-unit cache of node-level frontend products.
///
/// Sharded exactly like the artifact cache — one per challenge task,
/// one per chain driver in tests — so hit/miss totals are a pure
/// function of the inputs, never of worker scheduling.
#[derive(Debug, Default)]
pub struct FrontendCache {
    /// `(item hash, style)` → rendered region text (trusted hash,
    /// debug-verified).
    rendered: HashMap<(u64, RenderStyle), Arc<str>>,
    /// Item hash → per-item feature partials (trusted hash).
    item_feats: HashMap<u64, Arc<ItemFeatures>>,
    /// Region text → layout scan, for the layout features and the
    /// layout detection alike (exact: text-keyed).
    layouts: HashMap<String, Arc<RegionLayout>>,
    /// Unit hash → analyzer diagnostics (trusted hash).
    diags: HashMap<u64, Arc<Vec<Diagnostic>>>,
    /// Unit hash → semantic fingerprint (trusted hash).
    fps: HashMap<u64, u64>,
    node_hits: u64,
    node_misses: u64,
}

impl FrontendCache {
    /// An empty cache.
    pub fn new() -> Self {
        FrontendCache::default()
    }

    /// Node-level lookups served from cache.
    pub fn node_hits(&self) -> u64 {
        self.node_hits
    }

    /// Node-level lookups that computed and stored a new product.
    pub fn node_misses(&self) -> u64 {
        self.node_misses
    }

    /// The rendered text of `item` under `style`, keyed by structural
    /// hash.
    fn rendered_for(&mut self, hash: u64, item: &Item, style: &RenderStyle) -> Arc<str> {
        if let Some(piece) = self.rendered.get(&(hash, style.clone())) {
            self.node_hits += 1;
            debug_assert_eq!(piece.as_ref(), render_item_text(item, style).as_str());
            return Arc::clone(piece);
        }
        self.node_misses += 1;
        let piece: Arc<str> = render_item_text(item, style).into();
        self.rendered
            .insert((hash, style.clone()), Arc::clone(&piece));
        piece
    }

    /// Per-item feature partials keyed by structural hash.
    pub fn item_features_for(&mut self, hash: u64, item: &Item) -> Arc<ItemFeatures> {
        if let Some(f) = self.item_feats.get(&hash) {
            self.node_hits += 1;
            debug_assert_eq!(**f, ItemFeatures::of_item(item));
            return Arc::clone(f);
        }
        self.node_misses += 1;
        let f = Arc::new(ItemFeatures::of_item(item));
        self.item_feats.insert(hash, Arc::clone(&f));
        f
    }

    /// Per-region layout scan keyed by region text.
    pub fn layout_for(&mut self, region: &str) -> Arc<RegionLayout> {
        if let Some(l) = self.layouts.get(region) {
            self.node_hits += 1;
            return Arc::clone(l);
        }
        self.node_misses += 1;
        let l = Arc::new(RegionLayout::scan(region));
        self.layouts.insert(region.to_string(), Arc::clone(&l));
        l
    }

    /// Whole-unit analyzer diagnostics keyed by unit hash.
    pub fn diags_for(
        &mut self,
        unit_hash: u64,
        unit: &TranslationUnit,
        analyzer: &Analyzer,
    ) -> Arc<Vec<Diagnostic>> {
        if let Some(d) = self.diags.get(&unit_hash) {
            self.node_hits += 1;
            debug_assert_eq!(**d, analyzer.analyze(unit));
            return Arc::clone(d);
        }
        self.node_misses += 1;
        let d = Arc::new(analyzer.analyze(unit));
        self.diags.insert(unit_hash, Arc::clone(&d));
        d
    }

    /// Whole-unit semantic fingerprint keyed by unit hash.
    pub fn fingerprint_for(&mut self, unit_hash: u64, unit: &TranslationUnit) -> u64 {
        if let Some(fp) = self.fps.get(&unit_hash) {
            self.node_hits += 1;
            debug_assert_eq!(*fp, fingerprint(unit));
            return *fp;
        }
        self.node_misses += 1;
        let fp = fingerprint(unit);
        self.fps.insert(unit_hash, fp);
        fp
    }
}

/// Detects the layout style of `source` from cached per-region scans,
/// equal to [`detect_render_style`] on the whole text.
pub fn detect_with_regions(
    fc: &mut FrontendCache,
    source: &str,
    regions: &RegionInfo,
) -> RenderStyle {
    let scans: Vec<(usize, Arc<RegionLayout>)> = regions
        .spans
        .iter()
        .map(|span| {
            (
                span.sep_before,
                fc.layout_for(&source[span.start..span.end]),
            )
        })
        .collect();
    let layout = RegionLayout::assemble(scans.iter().map(|(sep, l)| (*sep, l.as_ref())));
    debug_assert_eq!(layout, RegionLayout::scan(source));
    layout.render_style()
}

// ---------------------------------------------------------------------------
// One chain step through the caches
// ---------------------------------------------------------------------------

/// Runs one transformation step through the node caches.
///
/// Byte-identical to
/// [`Transformer::transform`]`(source, pool_idx, rng)` followed by
/// `parse(&output)`: the rewrite pass consumes the exact RNG stream,
/// the render assembles cached per-item pieces under the blended
/// style, and the returned unit is the rewritten AST itself — equal to
/// a fresh whole parse because the renderer is the parser's inverse on
/// every AST the rewrite passes can produce (re-proved by
/// `debug_assert` on every debug run).
/// `src_render` must equal `detect_render_style(source)` (callers get
/// it from [`detect_with_regions`] or the whole-text detector).
///
/// # Errors
///
/// Infallible in practice; the `Result` carries the debug-only
/// semantics check, which re-parses and can surface
/// [`GptError::Parse`].
pub fn transform_step_cached(
    transformer: &Transformer<'_>,
    source: &str,
    unit: &TranslationUnit,
    src_render: &RenderStyle,
    pool_idx: usize,
    rng: &mut Pcg64,
    fc: &mut FrontendCache,
) -> Result<StepFrontend, GptError> {
    debug_assert_eq!(src_render, &detect_render_style(source));
    let (rewritten, style) = transformer.rewrite_styled(src_render, unit.clone(), pool_idx, rng);

    // Render: cached per-item pieces joined by the separator plan. The
    // structural hashes computed for the render lookup double as the
    // step's `RegionInfo` item hashes.
    let seps = separator_plan(&rewritten.items, &style);
    let mut pieces: Vec<Arc<str>> = Vec::with_capacity(rewritten.items.len());
    let mut item_hashes: Vec<u64> = Vec::with_capacity(rewritten.items.len());
    for item in &rewritten.items {
        let h = item_hash(item);
        item_hashes.push(h);
        pieces.push(fc.rendered_for(h, item, &style));
    }
    let total: usize = seps.iter().sum::<usize>() + pieces.iter().map(|p| p.len()).sum::<usize>();
    let mut out = String::with_capacity(total);
    let mut spans = Vec::with_capacity(pieces.len());
    for (piece, sep) in pieces.iter().zip(&seps) {
        for _ in 0..*sep {
            out.push('\n');
        }
        let start = out.len();
        out.push_str(piece);
        spans.push(RegionSpan {
            start,
            end: out.len(),
            sep_before: *sep,
        });
    }
    debug_assert_eq!(out, synthattr_lang::render::render(&rewritten, &style));

    // Parse: skipped. The renderer is the parser's inverse on the
    // rewriter's AST subset — `parse(render(unit, style)) == unit` for
    // every unit the rewrite passes can produce (the rewriter only
    // rearranges canonical constructs; it cannot synthesise a node the
    // renderer prints ambiguously). The rewritten AST *is* the parse of
    // the assembled text, so the step hands it straight through instead
    // of re-parsing its own render region by region. The identity is
    // re-proved on every debug run below.
    debug_assert_eq!(
        rewritten,
        parse(&out).expect("assembled text re-parses"),
        "render/parse round-trip must reproduce the rewritten AST"
    );
    let unit_hash = unit_hash_of(&item_hashes);
    let (parsed, regions) = (
        rewritten,
        RegionInfo {
            spans,
            item_hashes,
            unit_hash,
        },
    );

    #[cfg(debug_assertions)]
    crate::transform::debug_assert_semantics_preserved(source, &out)?;
    Ok(StepFrontend {
        source: out,
        unit: parsed,
        regions,
    })
}

// ---------------------------------------------------------------------------
// Cached chain drivers
// ---------------------------------------------------------------------------

/// One chain step with its node-level structure, as produced by the
/// cached drivers.
#[derive(Debug, Clone)]
pub struct CachedStep {
    /// The transformed sample (text + provenance).
    pub sample: crate::chain::TransformedSample,
    /// The AST of `sample.source`, equal to a fresh parse.
    pub unit: TranslationUnit,
    /// Node-level structure of `sample.source`.
    pub regions: RegionInfo,
}

/// Cached NCT driver: byte-identical to
/// [`try_run_nct`](crate::chain::try_run_nct), with the seed's layout
/// detection hoisted out of the loop (the seed never changes) and every
/// per-item product shared through `fc`.
///
/// # Errors
///
/// Returns [`GptError::Parse`] if a rendered output leaves the subset.
pub fn try_run_nct_steps_cached(
    transformer: &Transformer<'_>,
    seed_code: &str,
    seed_unit: &TranslationUnit,
    n: usize,
    seed_origin: synthattr_gen::corpus::Origin,
    rng: &mut Pcg64,
    fc: &mut FrontendCache,
) -> Result<Vec<CachedStep>, GptError> {
    use crate::chain::{TransformMode, TransformedSample};
    let pool = transformer.pool();
    #[cfg(debug_assertions)]
    let seed_fp = fingerprint(seed_unit);
    let src_render = detect_render_style(seed_code);
    (1..=n)
        .map(|step| {
            let pool_index = pool.sample_index(rng);
            let sf = transform_step_cached(
                transformer,
                seed_code,
                seed_unit,
                &src_render,
                pool_index,
                rng,
                fc,
            )?;
            #[cfg(debug_assertions)]
            debug_assert_eq!(
                fingerprint(&sf.unit),
                seed_fp,
                "NCT step {step} drifted from the seed's semantic fingerprint"
            );
            Ok(CachedStep {
                sample: TransformedSample {
                    source: sf.source,
                    step,
                    mode: TransformMode::NonChaining,
                    seed_origin,
                    pool_index,
                },
                unit: sf.unit,
                regions: sf.regions,
            })
        })
        .collect()
}

/// Cached CT driver: byte-identical to
/// [`try_run_ct`](crate::chain::try_run_ct). Step `i+1` detects layout
/// from step `i`'s cached region scans and reuses every unchanged
/// item's rendered text, parse, and hashes through `fc`.
///
/// # Errors
///
/// Returns [`GptError::Parse`] if a rendered output leaves the subset.
pub fn try_run_ct_steps_cached(
    transformer: &Transformer<'_>,
    seed_code: &str,
    seed_unit: &TranslationUnit,
    n: usize,
    seed_origin: synthattr_gen::corpus::Origin,
    rng: &mut Pcg64,
    fc: &mut FrontendCache,
) -> Result<Vec<CachedStep>, GptError> {
    use crate::chain::{TransformMode, TransformedSample};
    let pool = transformer.pool();
    #[cfg(debug_assertions)]
    let seed_fp = fingerprint(seed_unit);
    let mut style_idx = pool.sample_index(rng);
    let mut out: Vec<CachedStep> = Vec::with_capacity(n);
    for step in 1..=n {
        if step > 1 && !rng.next_bool(pool.ct_stickiness) {
            style_idx = pool.sample_index(rng);
        }
        let sf = match out.last() {
            Some(prev) => {
                let sr = detect_with_regions(fc, &prev.sample.source, &prev.regions);
                transform_step_cached(
                    transformer,
                    &prev.sample.source,
                    &prev.unit,
                    &sr,
                    style_idx,
                    rng,
                    fc,
                )?
            }
            None => {
                let sr = detect_render_style(seed_code);
                transform_step_cached(transformer, seed_code, seed_unit, &sr, style_idx, rng, fc)?
            }
        };
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            fingerprint(&sf.unit),
            seed_fp,
            "CT step {step} drifted from the seed's semantic fingerprint"
        );
        out.push(CachedStep {
            sample: TransformedSample {
                source: sf.source,
                step,
                mode: TransformMode::Chaining,
                seed_origin,
                pool_index: style_idx,
            },
            unit: sf.unit,
            regions: sf.regions,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{try_run_ct, try_run_nct};
    use crate::pool::YearPool;
    use synthattr_gen::challenges::ChallengeId;
    use synthattr_gen::corpus::{solution_in_style, Origin};
    use synthattr_gen::style::AuthorStyle;
    use synthattr_lang::render::Indent;

    fn seed_code(seed: u64) -> String {
        let mut rng = Pcg64::new(seed);
        let style = AuthorStyle::sample(&mut rng);
        solution_in_style(ChallengeId::SumSeries, &style, seed, &["incr-seed"])
    }

    #[test]
    fn cached_ct_driver_matches_plain_driver_byte_for_byte() {
        let pool = YearPool::calibrated(2018, 3);
        let gpt = Transformer::new(&pool);
        let seed = seed_code(9);
        let seed_unit = parse(&seed).unwrap();

        let plain = try_run_ct(&gpt, &seed, 12, Origin::Human, &mut Pcg64::new(32)).unwrap();
        let mut fc = FrontendCache::new();
        let cached = try_run_ct_steps_cached(
            &gpt,
            &seed,
            &seed_unit,
            12,
            Origin::Human,
            &mut Pcg64::new(32),
            &mut fc,
        )
        .unwrap();
        assert_eq!(plain.len(), cached.len());
        for (p, c) in plain.iter().zip(&cached) {
            assert_eq!(*p, c.sample);
            assert_eq!(c.unit, parse(&c.sample.source).unwrap());
            // Region structure tiles the text and hashes its items.
            let mut pos = 0usize;
            for (span, (item, hash)) in c
                .regions
                .spans
                .iter()
                .zip(c.unit.items.iter().zip(&c.regions.item_hashes))
            {
                assert_eq!(span.start, pos + span.sep_before);
                assert_eq!(*hash, item_hash(item));
                pos = span.end;
            }
            assert_eq!(pos, c.sample.source.len());
            assert_eq!(c.regions.unit_hash, unit_hash_of(&c.regions.item_hashes));
        }
        assert!(fc.node_hits() > 0, "a chain must reuse nodes across steps");

        // A second identical run through the same warm cache stays
        // byte-identical (every product now comes from cache).
        let warm = try_run_ct_steps_cached(
            &gpt,
            &seed,
            &seed_unit,
            12,
            Origin::Human,
            &mut Pcg64::new(32),
            &mut fc,
        )
        .unwrap();
        for (p, c) in plain.iter().zip(&warm) {
            assert_eq!(*p, c.sample);
            assert_eq!(c.unit, parse(&c.sample.source).unwrap());
        }
    }

    #[test]
    fn cached_nct_driver_matches_plain_driver_byte_for_byte() {
        let pool = YearPool::calibrated(2019, 2);
        let gpt = Transformer::new(&pool);
        let seed = seed_code(4);
        let seed_unit = parse(&seed).unwrap();

        let plain = try_run_nct(&gpt, &seed, 10, Origin::ChatGpt, &mut Pcg64::new(31)).unwrap();
        let mut fc = FrontendCache::new();
        let cached = try_run_nct_steps_cached(
            &gpt,
            &seed,
            &seed_unit,
            10,
            Origin::ChatGpt,
            &mut Pcg64::new(31),
            &mut fc,
        )
        .unwrap();
        assert_eq!(plain.len(), cached.len());
        for (p, c) in plain.iter().zip(&cached) {
            assert_eq!(*p, c.sample);
            assert_eq!(c.unit, parse(&c.sample.source).unwrap());
        }
    }

    #[test]
    fn ct_chain_refeaturizes_only_changed_regions() {
        // A long CT chain re-featurizes only what changed: step by
        // step, the node cache's misses during featurization are at
        // most the sub-trees and regions this step introduced, and the
        // features assembled from N regions equal extracting the whole
        // text as one region.
        use std::collections::HashSet;
        use synthattr_features::{FeatureConfig, FeatureExtractor};

        const SEED: u64 = 0x5EED_2025;
        let pool = YearPool::calibrated(2018, SEED);
        let transformer = Transformer::new(&pool);
        let mut gen_rng = Pcg64::seed_from(SEED, &["gpt-gen", "2018", "0"]);
        let style_idx = pool.sample_index(&mut gen_rng);
        let seed = solution_in_style(
            ChallengeId::SumSeries,
            pool.style(style_idx),
            SEED,
            &["gpt-gen-code", "2018", "0"],
        );
        let seed_unit = parse(&seed).unwrap();

        let mut fc = FrontendCache::new();
        let steps = try_run_ct_steps_cached(
            &transformer,
            &seed,
            &seed_unit,
            50,
            Origin::ChatGpt,
            &mut Pcg64::new(42),
            &mut fc,
        )
        .unwrap();
        assert_eq!(steps.len(), 50);

        let extractor = FeatureExtractor::new(FeatureConfig::default());
        let mut seen_items: HashSet<u64> = HashSet::new();
        let mut seen_regions: HashSet<String> = HashSet::new();
        let mut total_new = 0u64;
        for (i, step) in steps.iter().enumerate() {
            // One feature partial per unseen item hash, one layout scan
            // per unseen region text: all a step *can* introduce.
            let new_items = step
                .regions
                .item_hashes
                .iter()
                .filter(|h| seen_items.insert(**h))
                .count() as u64;
            let new_regions = step
                .regions
                .spans
                .iter()
                .map(|sp| step.sample.source[sp.start..sp.end].to_string())
                .filter(|r| seen_regions.insert(r.clone()))
                .count() as u64;
            total_new += new_items + new_regions;

            let before = fc.node_misses();
            let items: Vec<_> = step
                .regions
                .item_hashes
                .iter()
                .zip(&step.unit.items)
                .map(|(h, item)| fc.item_features_for(*h, item))
                .collect();
            let layouts: Vec<_> = step
                .regions
                .spans
                .iter()
                .map(|sp| {
                    (
                        sp.sep_before,
                        fc.layout_for(&step.sample.source[sp.start..sp.end]),
                    )
                })
                .collect();
            let features = extractor.extract_from_parts(
                step.sample.source.len(),
                items.iter().map(|a| a.as_ref()),
                layouts.iter().map(|(s, l)| (*s, l.as_ref())),
            );
            let misses = fc.node_misses() - before;

            assert_eq!(
                features,
                extractor.extract_parsed(&step.sample.source, &step.unit),
                "step {i}"
            );
            // The chain driver may already have warmed some sub-trees
            // while rendering, so featurizing can even be all hits.
            assert!(
                misses <= new_items + new_regions,
                "step {i}: featurizing recomputed {misses} nodes but only {} changed",
                new_items + new_regions
            );
        }
        // Across 50 chained steps, far fewer distinct nodes exist than
        // `steps × items-per-step` naive featurization would touch.
        let touched: u64 = steps
            .iter()
            .map(|s| 2 * s.regions.item_hashes.len() as u64)
            .sum();
        assert!(
            total_new * 2 < touched,
            "chain steps share sub-trees: {total_new} distinct vs {touched} touched"
        );
    }

    #[test]
    fn unit_hash_caches_serve_diags_and_fingerprints_across_texts() {
        // Two texts with identical structure (different layout only)
        // share one diagnostics product and one fingerprint.
        let src = seed_code(5);
        let unit = parse(&src).unwrap();
        let analyzer = Analyzer::new();
        let mut fc = FrontendCache::new();
        let h = synthattr_lang::hash::unit_hash(&unit);
        let d1 = fc.diags_for(h, &unit, &analyzer);
        let fp1 = fc.fingerprint_for(h, &unit);
        assert_eq!(fc.node_misses(), 2);
        let relaid = parse(&synthattr_lang::render::render(
            &unit,
            &RenderStyle {
                indent: Indent::Tab,
                ..RenderStyle::default()
            },
        ))
        .unwrap();
        if synthattr_lang::hash::unit_hash(&relaid) == h {
            let d2 = fc.diags_for(h, &relaid, &analyzer);
            let fp2 = fc.fingerprint_for(h, &relaid);
            assert!(Arc::ptr_eq(&d1, &d2));
            assert_eq!(fp1, fp2);
            assert_eq!(fc.node_hits(), 2);
        }
        assert_eq!(*d1, analyzer.analyze(&unit));
        assert_eq!(fp1, fingerprint(&unit));
    }
}
