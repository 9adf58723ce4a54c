//! Layout feature family: measurements taken from the raw source text
//! (the AST deliberately carries no whitespace).
//!
//! [`RegionLayout::scan`] measures one region of text and
//! [`push_features_merged`] turns a sequence of scans into the family's
//! features. A whole source is one region with no separator; a
//! rendered unit can be assembled from one scan per item.

use synthattr_util::stats::{log_ratio, mean, std_dev};

/// Pushes one feature name per layout feature, in extraction order.
pub fn push_names(names: &mut Vec<String>) {
    for n in [
        "lay.ln_tabs",
        "lay.ln_spaces",
        "lay.ln_empty_lines",
        "lay.whitespace_ratio",
        "lay.avg_line_len",
        "lay.std_line_len",
        "lay.max_line_len",
        "lay.avg_leading_ws",
        "lay.tab_indent_ratio",
        "lay.indent_mod2_ratio",
        "lay.indent_mod3_ratio",
        "lay.indent_mod4_ratio",
        "lay.brace_own_line_ratio",
        "lay.brace_same_line_ratio",
        "lay.space_after_comma_ratio",
        "lay.space_around_assign_ratio",
        "lay.space_after_keyword_ratio",
        "lay.blank_line_ratio",
        "lay.line_comment_density",
        "lay.block_comment_density",
    ] {
        names.push(n.to_string());
    }
}

/// Number of layout features.
pub const DIM: usize = 20;

/// Counts `(plain, spaced)`: plain `=` assignments, and those written
/// with a space on both sides.
///
/// Compound operators (`==`, `<=`, `+=`, …) are excluded by inspecting
/// the characters around each `=`.
fn assign_spacing_counts(src: &str) -> (usize, usize) {
    let bytes = src.as_bytes();
    let mut plain = 0usize;
    let mut spaced = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'=' {
            continue;
        }
        let prev = if i > 0 { bytes[i - 1] } else { b' ' };
        let next = *bytes.get(i + 1).unwrap_or(&b' ');
        // Skip ==, !=, <=, >=, +=, -=, *=, /=, %=, &=, |=, ^=, <<=, >>=.
        if matches!(
            prev,
            b'=' | b'!' | b'<' | b'>' | b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^'
        ) || next == b'='
        {
            continue;
        }
        plain += 1;
        if prev == b' ' && next == b' ' {
            spaced += 1;
        }
    }
    (plain, spaced)
}

/// Layout scan of one region of source text: a whole source, or one
/// rendered top-level item's text, mergeable into the layout features
/// of the text the regions assemble.
///
/// A rendered source is the concatenation of regions with a number of
/// blank separator lines before each region (see
/// `synthattr_lang::render::render_with_regions`). Every region ends
/// with a newline, so line boundaries align with region boundaries and
/// no scanned substring pattern — none contains `'\n'` — can straddle
/// one. [`push_features_merged`] over the per-item scans therefore
/// equals [`push_features_merged`] over one scan of the concatenated
/// text bit-for-bit: the ordered per-line vectors are rebuilt exactly
/// (separator lines are empty), and every remaining accumulator is an
/// integer count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionLayout {
    len: usize,
    tabs: usize,
    spaces: usize,
    ws_chars: usize,
    /// Byte length of every line, in order.
    line_lens: Vec<u32>,
    /// `(leading-ws width, leading contains tab)` per non-blank line,
    /// in order.
    leading: Vec<(u32, bool)>,
    empty_lines: usize,
    open_brace_lines: usize,
    own_line: usize,
    same_line: usize,
    commas: usize,
    spaced_commas: usize,
    assign_plain: usize,
    assign_spaced: usize,
    kw_spaced: usize,
    kw_tight: usize,
    line_comments: usize,
    block_comments: usize,
}

impl RegionLayout {
    /// Scans one region's text.
    pub fn scan(region: &str) -> Self {
        // The assign-spacing scan defaults the byte before the region
        // to ' ', as at the start of a whole text; between rendered
        // regions that is only exact because no rendered item starts
        // with '='.
        debug_assert!(!region.starts_with('='), "region starts with '='");
        let mut line_lens = Vec::new();
        let mut leading = Vec::new();
        let mut empty_lines = 0usize;
        let mut open_brace_lines = 0usize;
        let mut own_line = 0usize;
        let mut same_line = 0usize;
        for l in region.lines() {
            line_lens.push(l.len() as u32);
            if l.trim().is_empty() {
                empty_lines += 1;
            } else {
                let lead = l
                    .chars()
                    .take_while(|c| *c == ' ' || *c == '\t')
                    .collect::<String>();
                leading.push((lead.len() as u32, lead.contains('\t')));
            }
            if l.contains('{') {
                open_brace_lines += 1;
            }
            let t = l.trim();
            if t == "{" {
                own_line += 1;
            } else if t.ends_with('{') && t.len() > 1 {
                same_line += 1;
            }
        }
        let (assign_plain, assign_spaced) = assign_spacing_counts(region);
        RegionLayout {
            len: region.len(),
            tabs: region.matches('\t').count(),
            spaces: region.matches(' ').count(),
            ws_chars: region.chars().filter(|c| c.is_whitespace()).count(),
            line_lens,
            leading,
            empty_lines,
            open_brace_lines,
            own_line,
            same_line,
            commas: region.matches(',').count(),
            spaced_commas: region.matches(", ").count(),
            assign_plain,
            assign_spaced,
            kw_spaced: region.matches("if (").count()
                + region.matches("for (").count()
                + region.matches("while (").count(),
            kw_tight: region.matches("if(").count()
                + region.matches("for(").count()
                + region.matches("while(").count(),
            line_comments: region.matches("//").count(),
            block_comments: region.matches("/*").count(),
        }
    }
}

/// Pushes the layout features of the source assembled from `regions`,
/// where each `(sep, scan)` pair contributes `sep` blank separator
/// lines followed by the scanned region text.
pub fn push_features_merged<'a, I>(regions: I, out: &mut Vec<f64>)
where
    I: IntoIterator<Item = (usize, &'a RegionLayout)>,
{
    let mut len = 0usize;
    let mut tabs = 0usize;
    let mut spaces = 0usize;
    let mut ws_chars = 0usize;
    let mut empty_lines = 0usize;
    let mut line_lens: Vec<f64> = Vec::new();
    let mut leading_ws: Vec<f64> = Vec::new();
    let mut tab_lines = 0usize;
    let mut space_indented = 0usize;
    let mut space_mod = [0usize; 3]; // widths divisible by 2 / 3 / 4
    let mut open_brace_lines = 0usize;
    let mut own_line = 0usize;
    let mut same_line = 0usize;
    let mut commas = 0usize;
    let mut spaced_commas = 0usize;
    let mut assign_plain = 0usize;
    let mut assign_spaced = 0usize;
    let mut kw_spaced = 0usize;
    let mut kw_tight = 0usize;
    let mut line_comments = 0usize;
    let mut block_comments = 0usize;

    for (sep, r) in regions {
        len += sep + r.len;
        ws_chars += sep + r.ws_chars; // separator newlines are whitespace
        empty_lines += sep + r.empty_lines;
        line_lens.extend(std::iter::repeat_n(0.0, sep));
        line_lens.extend(r.line_lens.iter().map(|&w| w as f64));
        for &(w, has_tab) in &r.leading {
            leading_ws.push(w as f64);
            if has_tab {
                tab_lines += 1;
            } else if w > 0 {
                space_indented += 1;
                for (slot, m) in space_mod.iter_mut().zip([2u32, 3, 4]) {
                    if w % m == 0 {
                        *slot += 1;
                    }
                }
            }
        }
        tabs += r.tabs;
        spaces += r.spaces;
        open_brace_lines += r.open_brace_lines;
        own_line += r.own_line;
        same_line += r.same_line;
        commas += r.commas;
        spaced_commas += r.spaced_commas;
        assign_plain += r.assign_plain;
        assign_spaced += r.assign_spaced;
        kw_spaced += r.kw_spaced;
        kw_tight += r.kw_tight;
        line_comments += r.line_comments;
        block_comments += r.block_comments;
    }

    let line_count = line_lens.len().max(1);
    out.push(log_ratio(tabs, len));
    out.push(log_ratio(spaces, len));
    out.push(log_ratio(empty_lines, line_count));
    out.push(ws_chars as f64 / len.max(1) as f64);
    out.push(mean(&line_lens) / 100.0);
    out.push(std_dev(&line_lens) / 100.0);
    out.push(line_lens.iter().cloned().fold(0.0, f64::max) / 100.0);
    out.push(mean(&leading_ws) / 10.0);
    let indented_total = tab_lines + space_indented;
    out.push(if indented_total == 0 {
        0.0
    } else {
        tab_lines as f64 / indented_total as f64
    });
    for slot in space_mod {
        out.push(if space_indented == 0 {
            0.0
        } else {
            slot as f64 / space_indented as f64
        });
    }
    out.push(if open_brace_lines == 0 {
        0.0
    } else {
        own_line as f64 / open_brace_lines as f64
    });
    out.push(if open_brace_lines == 0 {
        0.0
    } else {
        same_line as f64 / open_brace_lines as f64
    });
    out.push(if commas == 0 {
        0.0
    } else {
        spaced_commas as f64 / commas as f64
    });
    out.push(if assign_plain == 0 {
        0.0
    } else {
        assign_spaced as f64 / assign_plain as f64
    });
    out.push(if kw_spaced + kw_tight == 0 {
        0.0
    } else {
        kw_spaced as f64 / (kw_spaced + kw_tight) as f64
    });
    out.push(empty_lines as f64 / line_count as f64);
    out.push(log_ratio(line_comments, line_count));
    out.push(log_ratio(block_comments, line_count));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extract(src: &str) -> Vec<f64> {
        let mut out = Vec::new();
        push_features_merged([(0, &RegionLayout::scan(src))], &mut out);
        out
    }

    fn idx(name: &str) -> usize {
        let mut names = Vec::new();
        push_names(&mut names);
        names.iter().position(|n| n == name).unwrap()
    }

    #[test]
    fn names_match_dim() {
        let mut names = Vec::new();
        push_names(&mut names);
        assert_eq!(names.len(), DIM);
        assert_eq!(extract("int main() { return 0; }").len(), DIM);
    }

    #[test]
    fn all_finite_on_edge_cases() {
        for src in ["", "\n\n\n", "x", "int main() { return 0; }"] {
            for (i, v) in extract(src).iter().enumerate() {
                assert!(v.is_finite(), "feature {i} not finite for {src:?}");
            }
        }
    }

    #[test]
    fn tabs_vs_spaces_discriminates() {
        let tabbed = "int main()\n{\n\treturn 0;\n}\n";
        let spaced = "int main()\n{\n    return 0;\n}\n";
        let i = idx("lay.tab_indent_ratio");
        assert_eq!(extract(tabbed)[i], 1.0);
        assert_eq!(extract(spaced)[i], 0.0);
    }

    #[test]
    fn brace_placement_discriminates() {
        let allman = "int main()\n{\n    return 0;\n}\n";
        let knr = "int main() {\n    return 0;\n}\n";
        let own = idx("lay.brace_own_line_ratio");
        let same = idx("lay.brace_same_line_ratio");
        assert_eq!(extract(allman)[own], 1.0);
        assert_eq!(extract(knr)[same], 1.0);
    }

    #[test]
    fn comma_and_assign_spacing() {
        let tight = "int main() { int a=1,b=2; return f(a,b); }";
        let airy = "int main() { int a = 1, b = 2; return f(a, b); }";
        let ci = idx("lay.space_after_comma_ratio");
        let ai = idx("lay.space_around_assign_ratio");
        assert_eq!(extract(tight)[ci], 0.0);
        assert_eq!(extract(airy)[ci], 1.0);
        assert_eq!(extract(tight)[ai], 0.0);
        assert_eq!(extract(airy)[ai], 1.0);
    }

    #[test]
    fn assign_spacing_ignores_compound_operators() {
        // Only `x = 1` is a plain assignment; the rest must not count.
        let src = "x == y; x <= y; x += 1; x = 1;";
        assert_eq!(assign_spacing_counts(src), (1, 1));
        let src2 = "x == y; x=1;";
        assert_eq!(assign_spacing_counts(src2), (1, 0));
    }

    #[test]
    fn keyword_spacing_discriminates() {
        let spaced = "int main() { if (1) { } while (0) { } return 0; }";
        let tight = "int main() { if(1) { } while(0) { } return 0; }";
        let i = idx("lay.space_after_keyword_ratio");
        assert_eq!(extract(spaced)[i], 1.0);
        assert_eq!(extract(tight)[i], 0.0);
    }

    #[test]
    fn merged_region_scans_equal_whole_file_features() {
        // Regions mimic rendered items: each ends with '\n'; separators
        // are blank lines inserted before a region.
        let cases: Vec<Vec<(usize, &str)>> = vec![
            vec![],
            vec![(0, "int main() {\n\treturn 0;\n}\n")],
            vec![
                (0, "#include <iostream>\n"),
                (0, "using namespace std;\n"),
                (1, "// helper, does x = 1\nint f(int a, int b) {\n  int x=1;\n  if (a>b) { return a; }\n  return b + x;\n}\n"),
                (2, "int main()\n{\n    int v = f(1, 2);\n    while(v > 0) v--;\n    /* done */\n    return v;\n}\n"),
            ],
        ];
        for parts in cases {
            let full: String = parts
                .iter()
                .map(|(sep, text)| format!("{}{}", "\n".repeat(*sep), text))
                .collect();
            let whole = extract(&full);
            let scans: Vec<(usize, RegionLayout)> = parts
                .iter()
                .map(|(sep, text)| (*sep, RegionLayout::scan(text)))
                .collect();
            let mut merged = Vec::new();
            push_features_merged(scans.iter().map(|(s, r)| (*s, r)), &mut merged);
            assert_eq!(whole, merged, "mismatch for {full:?}");
        }
    }

    #[test]
    fn indent_width_modulus() {
        let two = "int main() {\n  if (1) {\n    return 1;\n  }\n  return 0;\n}\n";
        let i4 = idx("lay.indent_mod4_ratio");
        let i2 = idx("lay.indent_mod2_ratio");
        let f = extract(two);
        assert_eq!(f[i2], 1.0);
        assert!(f[i4] < 1.0);
    }
}
