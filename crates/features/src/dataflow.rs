//! Dataflow feature family: semantic measurements the surface families
//! cannot see, taken from per-function control-flow graphs and the
//! fixed-point analyses in `synthattr_analysis::dataflow`.
//!
//! The family summarizes def-use chain fan-out, live-range pressure
//! and spans, dead stores, and the constant-foldable fraction of a
//! program — structure that survives the renaming/layout rewrites the
//! style transforms perform, which is exactly why it earns a place in
//! the attribution vector.
//!
//! **Per-item construction.** Extraction builds each function's CFG
//! *in isolation* ([`DataflowPartial::of_item`]), with no cross-item
//! typedef context: a partial keyed by an item's
//! structural hash must never change because a sibling item did. The
//! only cost is that scalars declared through a file-level alias
//! (`typedef long long ll; ll x;`) are not birth-tracked by the
//! feature counters; the lint passes, which analyze whole units, still
//! track them.

use synthattr_analysis::cfg::Cfg;
use synthattr_analysis::dataflow::DataflowSummary;
use synthattr_lang::ast::Item;

/// Number of dataflow features.
pub const DIM: usize = 12;

/// Pushes one feature name per dataflow feature, in extraction order.
pub fn push_names(names: &mut Vec<String>) {
    for n in [
        "df.avg_blocks_per_fn",
        "df.branch_block_ratio",
        "df.back_edge_ratio",
        "df.defs_per_stmt",
        "df.uses_per_stmt",
        "df.du_fanout_mean",
        "df.ln_du_fanout_max",
        "df.live_in_mean",
        "df.ln_live_in_max",
        "df.live_span_mean",
        "df.dead_store_ratio",
        "df.const_stmt_ratio",
    ] {
        names.push(n.to_string());
    }
}

/// The dataflow measurements of one top-level item, mergeable across
/// items in any order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DataflowPartial {
    summary: DataflowSummary,
}

impl DataflowPartial {
    /// Measures one item. Non-function items contribute nothing.
    pub fn of_item(item: &Item) -> Self {
        let summary = match item {
            Item::Function(f) => {
                DataflowSummary::of_cfg(&Cfg::build(f, &std::collections::HashMap::new()))
            }
            _ => DataflowSummary::default(),
        };
        DataflowPartial { summary }
    }

    /// Merges per-item partials into one unit-level summary. All the
    /// underlying counters are sums or maxima, so the result is
    /// independent of merge order.
    pub fn merge<'a>(parts: impl IntoIterator<Item = &'a DataflowPartial>) -> DataflowSummary {
        let mut total = DataflowSummary::default();
        for p in parts {
            total.merge(&p.summary);
        }
        total
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Pushes the dataflow features for one (merged) summary.
pub fn push_features(s: &DataflowSummary, out: &mut Vec<f64>) {
    out.push(ratio(s.blocks, s.functions));
    out.push(ratio(s.branch_blocks, s.blocks));
    out.push(ratio(s.back_edges, s.edges));
    out.push(ratio(s.defs, s.stmts));
    out.push(ratio(s.uses, s.stmts));
    out.push(ratio(s.du_edges, s.defs));
    out.push((1.0 + s.du_max as f64).ln());
    out.push(ratio(s.live_in_sum, s.blocks));
    out.push((1.0 + s.live_in_max as f64).ln());
    out.push(ratio(s.span_sum, s.vars));
    out.push(ratio(s.dead_stores, s.defs));
    out.push(ratio(s.const_stmts, s.rhs_stmts));
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthattr_lang::parse;

    #[test]
    fn names_match_dim() {
        let mut names = Vec::new();
        push_names(&mut names);
        assert_eq!(names.len(), DIM);
        assert!(names.iter().all(|n| n.starts_with("df.")));
    }

    #[test]
    fn features_match_dim_and_stay_finite() {
        for src in [
            "",
            "int x;",
            "int main() { return 0; }",
            "int main() { int s = 0; for (int i = 0; i < 9; i++) { if (i % 2 == 0) { s = s + i; } } return s; }",
        ] {
            let unit = parse(src).unwrap();
            let parts: Vec<DataflowPartial> =
                unit.items.iter().map(DataflowPartial::of_item).collect();
            let total = DataflowPartial::merge(&parts);
            let mut out = Vec::new();
            push_features(&total, &mut out);
            assert_eq!(out.len(), DIM);
            assert!(out.iter().all(|v| v.is_finite()), "{out:?} for {src:?}");
        }
    }

    #[test]
    fn merge_is_order_independent() {
        let unit = parse(
            "int helper(int a) { return a * 2; }\nint other(int b) { int c = b + 1; return c; }\nint main() { return helper(other(3)); }",
        )
        .unwrap();
        let parts: Vec<DataflowPartial> = unit.items.iter().map(DataflowPartial::of_item).collect();
        let forward = DataflowPartial::merge(&parts);
        let reversed = DataflowPartial::merge(parts.iter().rev());
        assert_eq!(forward, reversed);
        assert_eq!(forward.functions, 3);
    }

    #[test]
    fn loops_move_the_back_edge_feature() {
        let straight = parse("int main() { int a = 1; int b = a + 1; return b; }").unwrap();
        let looped =
            parse("int main() { int s = 0; for (int i = 0; i < 9; i++) { s = s + i; } return s; }")
                .unwrap();
        let f = |u: &synthattr_lang::ast::TranslationUnit| {
            let parts: Vec<DataflowPartial> =
                u.items.iter().map(DataflowPartial::of_item).collect();
            let mut out = Vec::new();
            push_features(&DataflowPartial::merge(&parts), &mut out);
            out
        };
        let a = f(&straight);
        let b = f(&looped);
        // Feature 2 is the back-edge ratio.
        assert_eq!(a[2], 0.0);
        assert!(b[2] > 0.0);
    }
}
