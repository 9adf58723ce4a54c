//! Syntactic feature family: AST depth statistics, node-kind term
//! frequencies, and hashed parent–child bigram frequencies.

use crate::stable_hash;
use synthattr_lang::ast::NodeKind;
use synthattr_lang::metrics::AstMetrics;
use synthattr_util::stats::log_ratio;

/// Hash buckets for parent–child node-kind bigram frequencies.
pub const BIGRAM_BUCKETS: usize = 48;

/// Pushes one feature name per syntactic feature, in extraction order.
pub fn push_names(names: &mut Vec<String>) {
    names.push("syn.max_depth".to_string());
    names.push("syn.avg_depth".to_string());
    names.push("syn.avg_branching".to_string());
    for kind in NodeKind::all() {
        names.push(format!("syn.kind_{kind:?}"));
    }
    for b in 0..BIGRAM_BUCKETS {
        names.push(format!("syn.bigram_{b}"));
    }
}

/// Pushes the syntactic features for one sample.
pub fn push_features(metrics: &AstMetrics, out: &mut Vec<f64>) {
    out.push(metrics.max_depth as f64 / 10.0);
    out.push(metrics.avg_depth / 10.0);
    out.push(metrics.avg_branching);
    let total = metrics.node_count.max(1);
    for kind in NodeKind::all() {
        out.push(log_ratio(metrics.kind_counts[kind.index()], total));
    }
    let mut buckets = [0usize; BIGRAM_BUCKETS];
    let mut bigram_total = 0usize;
    for ((parent, child), count) in &metrics.bigram_counts {
        let key = format!("{parent:?}>{child:?}");
        let b = (stable_hash(&key) % BIGRAM_BUCKETS as u64) as usize;
        buckets[b] += count;
        bigram_total += count;
    }
    for count in buckets {
        out.push(log_ratio(count, bigram_total.max(1)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthattr_lang::metrics::AstMetrics;
    use synthattr_lang::parse;

    fn extract(src: &str) -> Vec<f64> {
        let unit = parse(src).unwrap();
        let m = AstMetrics::measure(&unit);
        let mut out = Vec::new();
        push_features(&m, &mut out);
        out
    }

    #[test]
    fn names_match_dim() {
        let mut names = Vec::new();
        push_names(&mut names);
        assert_eq!(names.len(), extract("int main() { return 0; }").len());
    }

    #[test]
    fn all_finite_on_empty_unit() {
        for v in extract("") {
            assert!(v.is_finite());
        }
    }

    #[test]
    fn depth_feature_reflects_nesting() {
        let deep = extract(
            "int main() { if (1) { if (1) { if (1) { if (1) { return 1; } } } } return 0; }",
        );
        let flat = extract("int main() { return 0; }");
        assert!(deep[0] > flat[0]);
    }

    #[test]
    fn structurally_different_programs_differ() {
        let loops = extract("int main() { for (int i = 0; i < 9; ++i) { } return 0; }");
        let branches = extract("int main() { if (1) { return 1; } return 0; }");
        assert_ne!(loops, branches);
    }

    #[test]
    fn layout_changes_do_not_affect_syntactic_features() {
        let a = extract("int main(){int x=1;return x;}");
        let b = extract("int main()\n{\n\tint x = 1;\n\treturn x;\n}\n");
        assert_eq!(a, b);
    }
}
