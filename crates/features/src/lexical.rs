//! Lexical feature family: keyword/term densities, identifier style
//! statistics, IO idioms, and hashed identifier unigram frequencies.

use crate::collect::CodeStats;
use synthattr_util::stats::{log_ratio, mean, std_dev};

/// Ratio with a small epsilon guard; `0.0` when both counts are zero.
fn ratio(a: usize, b: usize) -> f64 {
    if a + b == 0 {
        0.0
    } else {
        a as f64 / (a + b) as f64
    }
}

/// Hash buckets for identifier unigram term frequencies.
pub const UNIGRAM_BUCKETS: usize = 48;

/// Pushes one feature name per lexical feature, in extraction order.
pub fn push_names(names: &mut Vec<String>) {
    for n in [
        "lex.ln_if",
        "lex.ln_else",
        "lex.ln_for",
        "lex.ln_foreach",
        "lex.ln_while",
        "lex.ln_do",
        "lex.ln_return",
        "lex.ln_jump",
        "lex.ln_ternary",
        "lex.ln_literals",
        "lex.ln_strings",
        "lex.ln_calls",
        "lex.ln_functions",
        "lex.ln_declarators",
        "lex.ln_includes",
        "lex.ln_defines",
        "lex.ln_aliases",
        "lex.ln_comments",
        "lex.using_namespace",
        "lex.avg_params_per_fn",
        "lex.multi_decl_ratio",
        "lex.comment_block_ratio",
        "lex.ln_stream_io",
        "lex.ln_stdio",
        "lex.stream_vs_stdio",
        "lex.endl_vs_newline",
        "lex.preinc_vs_postinc",
        "lex.static_vs_c_cast",
        "lex.compound_assign_ratio",
        "lex.ternary_vs_if",
        "lex.ident_len_avg",
        "lex.ident_len_std",
        "lex.ident_short_ratio",
        "lex.ident_snake_ratio",
        "lex.ident_camel_ratio",
        "lex.ident_upper_start_ratio",
    ] {
        names.push(n.to_string());
    }
    for b in 0..UNIGRAM_BUCKETS {
        names.push(format!("lex.unigram_{b}"));
    }
}

/// Pushes the lexical features for one sample.
///
/// `len` is the raw source length in bytes (the paper's per-length
/// normalization denominator).
pub fn push_features(stats: &CodeStats, len: usize, out: &mut Vec<f64>) {
    let s = stats;
    out.push(log_ratio(s.if_count, len));
    out.push(log_ratio(s.else_count, len));
    out.push(log_ratio(s.for_count, len));
    out.push(log_ratio(s.foreach_count, len));
    out.push(log_ratio(s.while_count, len));
    out.push(log_ratio(s.do_count, len));
    out.push(log_ratio(s.return_count, len));
    out.push(log_ratio(s.jump_count, len));
    out.push(log_ratio(s.ternary_count, len));
    out.push(log_ratio(s.literal_count, len));
    out.push(log_ratio(s.string_count, len));
    out.push(log_ratio(s.call_count, len));
    out.push(log_ratio(s.function_count, len));
    out.push(log_ratio(s.declarator_count, len));
    out.push(log_ratio(s.include_count, len));
    out.push(log_ratio(s.define_count, len));
    out.push(log_ratio(s.alias_count, len));
    out.push(log_ratio(s.line_comments + s.block_comments, len));
    out.push(if s.using_namespace { 1.0 } else { 0.0 });
    out.push(if s.function_count == 0 {
        0.0
    } else {
        s.param_count as f64 / s.function_count as f64
    });
    out.push(ratio(s.multi_declarations, s.declarator_count));
    out.push(ratio(s.block_comments, s.line_comments));
    out.push(log_ratio(s.stream_io_count, len));
    out.push(log_ratio(s.stdio_count, len));
    out.push(ratio(s.stream_io_count, s.stdio_count));
    out.push(ratio(s.endl_count, s.newline_literal_count));
    out.push(ratio(s.pre_incdec, s.post_incdec));
    out.push(ratio(s.static_casts, s.c_casts));
    out.push(ratio(s.compound_assign, s.plain_assign));
    out.push(ratio(s.ternary_count, s.if_count));

    let lengths = s.ident_lengths();
    out.push(mean(&lengths));
    out.push(std_dev(&lengths));
    let total = s.ident_names.len().max(1) as f64;
    let short = s.ident_names.iter().filter(|n| n.len <= 2).count();
    out.push(short as f64 / total);
    let snake = s.ident_names.iter().filter(|n| n.snake).count();
    out.push(snake as f64 / total);
    let camel = s.ident_names.iter().filter(|n| n.camel).count();
    out.push(camel as f64 / total);
    let upper = s.ident_names.iter().filter(|n| n.upper).count();
    out.push(upper as f64 / total);

    // Hashed identifier unigram term frequencies.
    let mut buckets = [0usize; UNIGRAM_BUCKETS];
    for name in &s.ident_names {
        let b = (name.hash % UNIGRAM_BUCKETS as u64) as usize;
        buckets[b] += 1;
    }
    let denom = s.ident_names.len().max(1);
    for count in buckets {
        out.push(log_ratio(count, denom));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::CodeStats;
    use synthattr_lang::parse;

    fn extract(src: &str) -> Vec<f64> {
        let unit = parse(src).unwrap();
        let stats = CodeStats::collect(&unit);
        let mut out = Vec::new();
        push_features(&stats, src.len(), &mut out);
        out
    }

    #[test]
    fn names_and_features_have_matching_dims() {
        let mut names = Vec::new();
        push_names(&mut names);
        let feats = extract("int main() { return 0; }");
        assert_eq!(names.len(), feats.len());
        // Names are unique.
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn all_features_finite() {
        for src in [
            "",
            "int main() { return 0; }",
            "#include <iostream>\nusing namespace std;\nint main() { int x = 0; cin >> x; cout << x; return 0; }",
        ] {
            for (i, v) in extract(src).iter().enumerate() {
                assert!(v.is_finite(), "feature {i} not finite for {src:?}");
            }
        }
    }

    #[test]
    fn snake_vs_camel_is_discriminative() {
        let snake = extract("int main() { int my_long_name = 1; int other_name = 2; return my_long_name + other_name; }");
        let camel = extract(
            "int main() { int myLongName = 1; int otherName = 2; return myLongName + otherName; }",
        );
        let mut names = Vec::new();
        push_names(&mut names);
        let snake_idx = names
            .iter()
            .position(|n| n == "lex.ident_snake_ratio")
            .unwrap();
        let camel_idx = names
            .iter()
            .position(|n| n == "lex.ident_camel_ratio")
            .unwrap();
        assert!(snake[snake_idx] > camel[snake_idx]);
        assert!(camel[camel_idx] > snake[camel_idx]);
    }

    #[test]
    fn io_idiom_is_discriminative() {
        let streams =
            extract("#include <iostream>\nint main() { int x; cin >> x; cout << x; return 0; }");
        let stdio = extract("#include <cstdio>\nint main() { int x; scanf(\"%d\", x); printf(\"%d\", x); return 0; }");
        let mut names = Vec::new();
        push_names(&mut names);
        let idx = names
            .iter()
            .position(|n| n == "lex.stream_vs_stdio")
            .unwrap();
        assert!(streams[idx] > 0.9);
        assert!(stdio[idx] < 0.1);
    }

    #[test]
    fn identical_source_gives_identical_features() {
        let src = "int main() { for (int i = 0; i < 3; ++i) { } return 0; }";
        assert_eq!(extract(src), extract(src));
    }
}
