//! Feature extraction from per-item partials: the one implementation
//! of every family.
//!
//! A feature vector is assembled from *partials* — one
//! [`ItemFeatures`] per top-level item (AST-derived families) and one
//! [`RegionLayout`] per region of text (text-derived family) — by
//! [`FeatureExtractor::extract_from_parts`]. Whole-file extraction is
//! the same assembly over one region with no separator:
//! [`FeatureExtractor::extract_parsed`] measures every item afresh and
//! scans the whole source once.
//!
//! The pipeline's transformation chains change only a few top-level
//! items per step, so callers there keep the partials keyed by content
//! (item structural hash or region text) and an unchanged item costs a
//! cache lookup instead of a walk. The property test below checks that
//! assembling a rendered unit from its N regions equals assembling it
//! from one; the root package's golden frontend grid
//! (`tests/frontend_golden.rs`) pins the vectors the pipeline
//! assembles.

use crate::collect::CodeStats;
use crate::dataflow::DataflowPartial;
use crate::layout::{self, RegionLayout};
use crate::{dataflow, lexical, syntactic, FeatureExtractor};
use synthattr_lang::ast::Item;
use synthattr_lang::metrics::{MetricsBuilder, MetricsPartial};
use synthattr_lang::visit::{walk_item, Pair};

/// Mergeable AST-derived measurements of one top-level item: the
/// lexical-family statistics slice, the syntactic-family metrics
/// partial, and the dataflow-family CFG summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemFeatures {
    stats: CodeStats,
    metrics: MetricsPartial,
    dataflow: DataflowPartial,
}

impl ItemFeatures {
    /// Measures one item: a single walk restricted to the item feeds
    /// both the lexical statistics and the syntactic metrics partial,
    /// bit-identical to [`CodeStats::collect_item`] +
    /// [`MetricsPartial::of_item`] run separately; the dataflow
    /// summary comes from the item's own CFGs
    /// ([`DataflowPartial::of_item`]).
    pub fn of_item(item: &Item) -> Self {
        let mut stats = CodeStats::default();
        let mut metrics = MetricsBuilder::for_item();
        walk_item(item, &mut Pair(&mut stats, &mut metrics), 1);
        ItemFeatures {
            stats,
            metrics: metrics.into_partial(),
            dataflow: DataflowPartial::of_item(item),
        }
    }
}

impl FeatureExtractor {
    /// Extracts the whole-unit feature vector from per-item partials
    /// and per-region layout scans.
    ///
    /// `source_len` is the length of the assembled source (regions plus
    /// separator newlines); `regions` yields `(separator_lines, scan)`
    /// in item order. Equal to
    /// [`extract_parsed`](FeatureExtractor::extract_parsed) on the
    /// assembled text and the unit holding these items, which is this
    /// function over the whole text as one region.
    pub fn extract_from_parts<'a>(
        &self,
        source_len: usize,
        items: impl IntoIterator<Item = &'a ItemFeatures>,
        regions: impl IntoIterator<Item = (usize, &'a RegionLayout)>,
    ) -> Vec<f64> {
        let items: Vec<&ItemFeatures> = items.into_iter().collect();
        let config = self.config();
        let mut out = Vec::with_capacity(self.dim());
        if config.lexical {
            let stats = CodeStats::merge(items.iter().map(|f| &f.stats));
            lexical::push_features(&stats, source_len, &mut out);
        }
        if config.layout {
            layout::push_features(&RegionLayout::assemble(regions), &mut out);
        }
        if config.syntactic {
            let metrics = MetricsPartial::merge(items.iter().map(|f| &f.metrics));
            syntactic::push_features(&metrics, &mut out);
        }
        if config.dataflow {
            let total = DataflowPartial::merge(items.iter().map(|f| &f.dataflow));
            dataflow::push_features(&total, &mut out);
        }
        debug_assert_eq!(out.len(), self.dim());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FeatureConfig;
    use synthattr_lang::parse;
    use synthattr_lang::render::{render_with_regions, BraceStyle, Indent, RenderStyle};

    const SOURCES: &[&str] = &[
        "",
        "int x;",
        "int main() { return 0; }",
        r#"
#include <iostream>
#include <vector>
#define MAXN 100
using namespace std;
typedef long long ll;
// a helper
int helper(int a, int b) {
    return a > b ? a : b;
}
ll total = 0;
int main() {
    int n, m;
    cin >> n >> m;
    for (int i = 0; i < n; ++i) {
        total += (long long)i;
        if (i % 2 == 0) {
            total = total * 2;
        } else {
            continue;
        }
    }
    while (m > 0) m--;
    printf("%d\n", n);
    cout << helper(n, m) << endl;
    return 0;
}
"#,
    ];

    fn styles() -> Vec<RenderStyle> {
        let mut out = Vec::new();
        for indent in [Indent::Spaces(2), Indent::Spaces(4), Indent::Tab] {
            for brace in [BraceStyle::SameLine, BraceStyle::NextLine] {
                for blanks in [0u8, 1] {
                    out.push(RenderStyle {
                        indent,
                        brace,
                        blank_lines_between_fns: blanks,
                        blank_line_after_prologue: blanks > 0,
                        space_around_binary: blanks == 0,
                        ..RenderStyle::default()
                    });
                }
            }
        }
        out
    }

    #[test]
    fn parts_extraction_is_bit_identical_to_whole() {
        for config in [
            FeatureConfig::default(),
            FeatureConfig::lexical_only(),
            FeatureConfig::without_syntactic(),
            FeatureConfig::without_dataflow(),
        ] {
            let ex = FeatureExtractor::new(config);
            for src in SOURCES {
                let unit = parse(src).unwrap();
                for style in styles() {
                    let (text, spans) = render_with_regions(&unit, &style);
                    let whole = ex.extract_parsed(&text, &unit);
                    let items: Vec<ItemFeatures> =
                        unit.items.iter().map(ItemFeatures::of_item).collect();
                    let scans: Vec<(usize, RegionLayout)> = spans
                        .iter()
                        .map(|s| (s.sep_before, RegionLayout::scan(&text[s.start..s.end])))
                        .collect();
                    let parts = ex.extract_from_parts(
                        text.len(),
                        items.iter(),
                        scans.iter().map(|(sep, r)| (*sep, r)),
                    );
                    assert_eq!(whole, parts, "config {:?} src {src:?}", ex.config());
                }
            }
        }
    }
}
