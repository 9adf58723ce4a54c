//! Syntactic measurements over the AST.
//!
//! These are the "syntactic features" of the Caliskan-Islam feature
//! set: tree depth statistics, node-kind term frequencies, and
//! parent–child node-kind bigram frequencies.
//!
//! Every measurement is taken per top-level item
//! ([`MetricsPartial::of_item`]) and merged: a whole unit's
//! [`AstMetrics`] is the merge of its items' partials, which lets the
//! incremental frontend reuse the partial of every item a
//! transformation step left unchanged.

use crate::ast::{NodeKind, TranslationUnit};
use crate::visit::{walk_item, Visitor};
use std::collections::HashMap;

/// Aggregated syntactic metrics of one translation unit.
#[derive(Debug, Clone, PartialEq)]
pub struct AstMetrics {
    /// Total AST nodes.
    pub node_count: usize,
    /// Maximum node depth (unit = 0).
    pub max_depth: usize,
    /// Mean node depth.
    pub avg_depth: f64,
    /// Occurrences of each [`NodeKind`], indexed by [`NodeKind::index`].
    pub kind_counts: [usize; NodeKind::COUNT],
    /// Parent–child kind bigram occurrences.
    pub bigram_counts: HashMap<(NodeKind, NodeKind), usize>,
    /// Mean number of children over internal (non-leaf) nodes.
    pub avg_branching: f64,
}

impl AstMetrics {
    /// Computes metrics for `unit`.
    ///
    /// # Example
    ///
    /// ```
    /// use synthattr_lang::{parse, metrics::AstMetrics};
    /// let unit = parse("int main() { return 1 + 2; }")?;
    /// let m = AstMetrics::measure(&unit);
    /// assert!(m.node_count > 5);
    /// assert!(m.max_depth >= 3);
    /// # Ok::<(), synthattr_lang::ParseError>(())
    /// ```
    pub fn measure(unit: &TranslationUnit) -> Self {
        let parts: Vec<MetricsPartial> = unit.items.iter().map(MetricsPartial::of_item).collect();
        MetricsPartial::merge(&parts)
    }

    /// Count for one node kind.
    pub fn kind_count(&self, kind: NodeKind) -> usize {
        self.kind_counts[kind.index()]
    }
}

/// Raw (pre-`finish`) syntactic measurements of one top-level item,
/// exactly as a whole-unit walk would have contributed them.
///
/// [`MetricsPartial::of_item`] replays the item's node stream with the
/// unit root pre-seeded on the ancestor stack, so the `(Unit, item)`
/// bigram and the root→item edge land in the partial; the unit node
/// itself (one node at depth 0, one `Unit` kind count, one internal
/// root when any item exists) is added once at merge time. Every
/// accumulator is an integer and the only floating-point math happens
/// in the final divisions, so the merge equals one walk over the whole
/// unit.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsPartial {
    node_count: usize,
    depth_sum: usize,
    max_depth: usize,
    kind_counts: [usize; NodeKind::COUNT],
    bigram_counts: HashMap<(NodeKind, NodeKind), usize>,
    children_total: usize,
    internal_nodes: usize,
}

impl MetricsPartial {
    /// Measures one item as a mergeable partial.
    pub fn of_item(item: &crate::ast::Item) -> Self {
        let mut builder = MetricsBuilder::for_item();
        walk_item(item, &mut builder, 1);
        builder.into_partial()
    }

    /// Merges per-item partials into the whole-unit [`AstMetrics`],
    /// adding the unit root's own contributions.
    pub fn merge<'a>(parts: impl IntoIterator<Item = &'a Self>) -> AstMetrics {
        let mut c = Collector::default();
        let mut any = false;
        for p in parts {
            any = true;
            c.node_count += p.node_count;
            c.depth_sum += p.depth_sum;
            c.max_depth = c.max_depth.max(p.max_depth);
            for (k, n) in p.kind_counts.iter().enumerate() {
                c.kind_counts[k] += n;
            }
            for (&bigram, &n) in &p.bigram_counts {
                *c.bigram_counts.entry(bigram).or_insert(0) += n;
            }
            c.children_total += p.children_total;
            c.internal_nodes += p.internal_nodes;
        }
        // The unit root: one node at depth 0, internal iff it has items.
        c.node_count += 1;
        c.kind_counts[NodeKind::Unit.index()] += 1;
        if any {
            c.internal_nodes += 1;
        }
        c.finish()
    }
}

/// An in-progress syntactic measurement of one item that can ride a
/// shared AST walk: construct, feed it the item's walk (alone or fused
/// with another visitor via [`crate::visit::Pair`]), then finish. The
/// node stream a builder observes is exactly what
/// [`MetricsPartial::of_item`] would produce, so fused use is
/// bit-identical to the stand-alone constructor.
pub struct MetricsBuilder(Collector);

impl MetricsBuilder {
    /// Ready to observe one item's walk at depth 1, pre-seeded with
    /// the unit root: the item's root node then records the
    /// `(Unit, item)` bigram and the root-to-item edge exactly like
    /// the whole-unit walk, and `counted = true` stops the partial
    /// from re-counting the root as internal (merge adds it once).
    pub fn for_item() -> Self {
        let mut c = Collector::default();
        c.stack.push(NodeKind::Unit);
        c.counted.push(true);
        MetricsBuilder(c)
    }

    /// Finishes a per-item observation.
    pub fn into_partial(self) -> MetricsPartial {
        let c = self.0;
        MetricsPartial {
            node_count: c.node_count,
            depth_sum: c.depth_sum,
            max_depth: c.max_depth,
            kind_counts: c.kind_counts,
            bigram_counts: c.bigram_counts,
            children_total: c.children_total,
            internal_nodes: c.internal_nodes,
        }
    }
}

impl Visitor for MetricsBuilder {
    fn visit(&mut self, kind: NodeKind, depth: usize) {
        self.0.visit(kind, depth);
    }
}

struct Collector {
    node_count: usize,
    depth_sum: usize,
    max_depth: usize,
    kind_counts: [usize; NodeKind::COUNT],
    bigram_counts: HashMap<(NodeKind, NodeKind), usize>,
    /// Stack of ancestors: `stack[d]` is the most recent node at depth d.
    stack: Vec<NodeKind>,
    /// Total parent→child edges seen.
    children_total: usize,
    /// Number of nodes that received at least one child.
    internal_nodes: usize,
    /// Stack of "has this ancestor been counted as internal yet".
    counted: Vec<bool>,
}

impl Default for Collector {
    fn default() -> Self {
        Collector {
            node_count: 0,
            depth_sum: 0,
            max_depth: 0,
            kind_counts: [0; NodeKind::COUNT],
            bigram_counts: HashMap::new(),
            stack: Vec::new(),
            children_total: 0,
            internal_nodes: 0,
            counted: Vec::new(),
        }
    }
}

impl Visitor for Collector {
    fn visit(&mut self, kind: NodeKind, depth: usize) {
        self.node_count += 1;
        self.depth_sum += depth;
        self.max_depth = self.max_depth.max(depth);
        self.kind_counts[kind.index()] += 1;

        self.stack.truncate(depth);
        self.counted.truncate(depth);
        if depth > 0 {
            if let Some(&parent) = self.stack.last() {
                *self.bigram_counts.entry((parent, kind)).or_insert(0) += 1;
                self.children_total += 1;
                if let Some(flag) = self.counted.last_mut() {
                    if !*flag {
                        *flag = true;
                        self.internal_nodes += 1;
                    }
                }
            }
        }
        self.stack.push(kind);
        self.counted.push(false);
    }
}

impl Collector {
    fn finish(self) -> AstMetrics {
        let avg_depth = if self.node_count == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.node_count as f64
        };
        let avg_branching = if self.internal_nodes == 0 {
            0.0
        } else {
            self.children_total as f64 / self.internal_nodes as f64
        };
        AstMetrics {
            node_count: self.node_count,
            max_depth: self.max_depth,
            avg_depth,
            kind_counts: self.kind_counts,
            bigram_counts: self.bigram_counts,
            avg_branching,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn counts_basic_kinds() {
        let unit = parse(
            "int main() { int x = 1; if (x > 0) { x++; } for (int i = 0; i < 3; ++i) { } return x; }",
        )
        .unwrap();
        let m = AstMetrics::measure(&unit);
        assert_eq!(m.kind_count(NodeKind::Function), 1);
        assert_eq!(m.kind_count(NodeKind::IfStmt), 1);
        assert_eq!(m.kind_count(NodeKind::ForStmt), 1);
        assert_eq!(m.kind_count(NodeKind::ReturnStmt), 1);
        assert!(m.kind_count(NodeKind::Ident) >= 4);
    }

    #[test]
    fn deeper_nesting_increases_depth() {
        let flat = parse("int main() { int a = 1; int b = 2; int c = 3; return a; }").unwrap();
        let deep =
            parse("int main() { if (1) { if (1) { if (1) { return 1; } } } return 0; }").unwrap();
        let mf = AstMetrics::measure(&flat);
        let md = AstMetrics::measure(&deep);
        assert!(md.max_depth > mf.max_depth);
    }

    #[test]
    fn bigrams_capture_parent_child_pairs() {
        let unit = parse("int main() { return 1 + 2; }").unwrap();
        let m = AstMetrics::measure(&unit);
        assert!(m
            .bigram_counts
            .contains_key(&(NodeKind::ReturnStmt, NodeKind::Binary)));
        assert_eq!(
            m.bigram_counts
                .get(&(NodeKind::Binary, NodeKind::IntLit))
                .copied(),
            Some(2)
        );
    }

    #[test]
    fn branching_factor_positive_and_consistent() {
        let unit = parse("int main() { int a = 1, b = 2; return a + b; }").unwrap();
        let m = AstMetrics::measure(&unit);
        assert!(m.avg_branching >= 1.0);
        // Total children == node_count - 1 (every node except the root
        // is someone's child).
        let children: usize = m.bigram_counts.values().sum();
        assert_eq!(children, m.node_count - 1);
    }

    #[test]
    fn empty_unit_is_all_zeroes() {
        let unit = parse("").unwrap();
        let m = AstMetrics::measure(&unit);
        assert_eq!(m.node_count, 1); // the unit node itself
        assert_eq!(m.max_depth, 0);
        assert_eq!(m.avg_branching, 0.0);
    }

    #[test]
    fn metrics_are_layout_invariant() {
        use crate::render::{render, BraceStyle, Indent, RenderStyle};
        let unit = parse("int main() { if (1) { return 1; } return 0; }").unwrap();
        let restyled = render(
            &unit,
            &RenderStyle {
                indent: Indent::Tab,
                brace: BraceStyle::NextLine,
                space_around_binary: false,
                ..RenderStyle::default()
            },
        );
        let unit2 = parse(&restyled).unwrap();
        let m1 = AstMetrics::measure(&unit);
        let m2 = AstMetrics::measure(&unit2);
        assert_eq!(m1, m2);
    }
}
