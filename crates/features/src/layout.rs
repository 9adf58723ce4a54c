//! Layout measurements taken from the raw source text (the AST
//! deliberately carries no whitespace): the layout feature family, and
//! the source-layout detection of the transformation simulator.
//!
//! [`RegionLayout::scan`] measures one region of text in one pass over
//! its bytes, and [`RegionLayout::assemble`] merges the scans of the
//! regions a text is rendered from into the scan of that text. Both
//! readers take that one scan: [`push_features`] turns it into the
//! family's features and [`RegionLayout::render_style`] into the
//! detected layout style. A whole source is one region with no
//! separator.

use synthattr_lang::render::{BraceStyle, Indent, RenderStyle};
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

/// Layout scan of one region of source text: a whole source, or one
/// rendered top-level item's text.
///
/// A rendered source is the concatenation of regions with a number of
/// blank separator lines before each region (see
/// `synthattr_lang::render::render_with_regions`). Every region ends
/// with a newline and none starts with one, so line boundaries align
/// with region boundaries, and the only scanned pattern that can span
/// one is a blank line after a region's last line (`"}\n\n"`,
/// `";\n\n"`, `">\n\n"`), which the region-edge flags rebuild.
/// [`RegionLayout::assemble`] over a rendered text's region scans
/// therefore equals [`RegionLayout::scan`] of the whole text: the
/// ordered per-line vectors are rebuilt exactly (separator lines are
/// empty), and every other field is an integer count or a flag.
///
/// Lines, trimming and whitespace follow `str` semantics: lines split
/// as `str::lines` splits them, and whitespace is
/// `char::is_whitespace`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
    /// Lines that trim to `{`.
    own_line: usize,
    /// Lines that trim to more than `{` and end with `{`.
    same_line: usize,
    commas: usize,
    spaced_commas: usize,
    /// Plain `=` assignments, compound operators excluded.
    assign_plain: usize,
    /// Plain `=` assignments with a space on both sides.
    assign_spaced: usize,
    /// Occurrences of `if (`, `for (` and `while (`.
    kw_spaced: usize,
    /// Occurrences of `if(`, `for(` and `while(`.
    kw_tight: usize,
    /// Occurrences of `//`, counted without overlaps.
    line_comments: usize,
    block_comments: usize,
    /// Some line trims to an `if`/`for`/`while` header ending in `)`.
    braceless: bool,
    /// Contains `" + "`, `" < "` or `" << "`.
    binary_spaced: bool,
    /// Contains `" = "`.
    assign_gap: bool,
    /// Contains `"> >"`.
    template_spaced: bool,
    /// Contains `"}\n\n"`.
    blank_after_brace: bool,
    /// Contains `";\n\n"` or `">\n\n"`.
    blank_after_prologue: bool,
    /// Starts with `=`.
    starts_assign: bool,
    /// Ends with `"}\n"`.
    ends_brace_nl: bool,
    /// Ends with `";\n"` or `">\n"`.
    ends_prologue_nl: bool,
}

/// The keywords whose spacing before `(` the scan reads.
const KEYWORDS: [&[u8]; 3] = [b"if", b"for", b"while"];

fn ends_with_keyword(text: &[u8]) -> bool {
    KEYWORDS.iter().any(|k| text.ends_with(k))
}

/// The line [`RegionLayout::scan`] is in.
#[derive(Default)]
struct Line {
    start: usize,
    /// Where the leading run of spaces and tabs ended, once it has.
    lead_end: Option<usize>,
    lead_tab: bool,
    /// Byte range of the line's trimmed text, once it has any.
    text: Option<(usize, usize)>,
    brace: bool,
}

impl RegionLayout {
    /// Scans one region's text in one pass over its bytes.
    pub fn scan(region: &str) -> Self {
        let b = region.as_bytes();
        let mut s = RegionLayout {
            len: b.len(),
            ..RegionLayout::default()
        };
        let mut line = Line::default();
        // `str::matches` counts `//` without overlaps: `///` holds one.
        let mut next_comment = 0usize;
        let mut i = 0usize;
        while i < b.len() {
            let c = b[i];
            // Every pattern is ASCII; a wider character only needs its
            // whitespace class.
            let (width, ws) = if c.is_ascii() {
                (1, c == b' ' || (b'\t'..=b'\r').contains(&c))
            } else {
                let ch = region[i..].chars().next().expect("a char starts at i");
                (ch.len_utf8(), ch.is_whitespace())
            };
            if line.lead_end.is_none() {
                match c {
                    b' ' => {}
                    b'\t' => line.lead_tab = true,
                    _ => line.lead_end = Some(i),
                }
            }
            if ws {
                s.ws_chars += 1;
            } else {
                line.text = Some((line.text.map_or(i, |(from, _)| from), i + width));
            }
            let rest = &b[i + 1..];
            match c {
                b'\n' => {
                    let end = if i > line.start && b[i - 1] == b'\r' {
                        i - 1
                    } else {
                        i
                    };
                    s.end_line(b, &line, end);
                    line = Line {
                        start: i + 1,
                        ..Line::default()
                    };
                }
                b'\t' => s.tabs += 1,
                b' ' => s.spaces += 1,
                b'{' => line.brace = true,
                b',' => {
                    s.commas += 1;
                    if rest.starts_with(b" ") {
                        s.spaced_commas += 1;
                    }
                }
                b'(' => match b[..i].strip_suffix(b" ") {
                    Some(head) if ends_with_keyword(head) => s.kw_spaced += 1,
                    _ if ends_with_keyword(&b[..i]) => s.kw_tight += 1,
                    _ => {}
                },
                b'/' if rest.starts_with(b"/") && i >= next_comment => {
                    s.line_comments += 1;
                    next_comment = i + 2;
                }
                b'/' if rest.starts_with(b"*") => s.block_comments += 1,
                b'=' => s.count_assign(b, i),
                b'+' => s.binary_spaced |= b[..i].ends_with(b" ") && rest.starts_with(b" "),
                b'<' => {
                    s.binary_spaced |= b[..i].ends_with(b" ")
                        && (rest.starts_with(b" ") || rest.starts_with(b"< "));
                }
                b'>' => {
                    s.template_spaced |= rest.starts_with(b" >");
                    s.blank_after_prologue |= rest.starts_with(b"\n\n");
                }
                b';' => s.blank_after_prologue |= rest.starts_with(b"\n\n"),
                b'}' => s.blank_after_brace |= rest.starts_with(b"\n\n"),
                _ => {}
            }
            i += width;
        }
        if line.start < b.len() {
            s.end_line(b, &line, b.len());
        }
        s.starts_assign = b.starts_with(b"=");
        s.ends_brace_nl = b.ends_with(b"}\n");
        s.ends_prologue_nl = b.ends_with(b";\n") || b.ends_with(b">\n");
        s
    }

    /// Closes `line`, whose text ends at `end` (before its `\n` or
    /// `\r\n`).
    fn end_line(&mut self, b: &[u8], line: &Line, end: usize) {
        self.line_lens.push((end - line.start) as u32);
        if line.brace {
            self.open_brace_lines += 1;
        }
        let Some((from, to)) = line.text else {
            self.empty_lines += 1;
            return;
        };
        let lead_end = line.lead_end.expect("non-blank text ends the leading run");
        self.leading
            .push(((lead_end - line.start) as u32, line.lead_tab));
        let t = &b[from..to];
        if t == b"{" {
            self.own_line += 1;
        } else if t.len() > 1 && t.ends_with(b"{") {
            self.same_line += 1;
        }
        // A braceless header: `if`/`for`/`while`, then ` ` or `(`, ..., `)`.
        self.braceless |= t.ends_with(b")")
            && KEYWORDS.iter().any(|k| {
                t.strip_prefix(*k)
                    .is_some_and(|r| r.starts_with(b" ") || r.starts_with(b"("))
            });
    }

    /// Counts the `=` at `i`: a plain assignment unless a neighbour
    /// makes it a compound operator, spaced when a space stands on both
    /// sides. A missing neighbour at the text's edge reads as a space.
    fn count_assign(&mut self, b: &[u8], i: usize) {
        let prev = i.checked_sub(1).map(|j| b[j]);
        let next = b.get(i + 1).copied();
        self.assign_gap |= prev == Some(b' ') && next == Some(b' ');
        let (prev, next) = (prev.unwrap_or(b' '), next.unwrap_or(b' '));
        if matches!(
            prev,
            b'=' | b'!' | b'<' | b'>' | b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^'
        ) || next == b'='
        {
            return;
        }
        self.assign_plain += 1;
        if prev == b' ' && next == b' ' {
            self.assign_spaced += 1;
        }
    }

    /// Merges the scans of the regions a text is assembled from into
    /// the scan of that text: each `(sep, scan)` pair contributes `sep`
    /// blank separator lines followed by the scanned region.
    ///
    /// Equal to [`RegionLayout::scan`] of the assembled text for
    /// rendered regions (see the type's docs). No region after the
    /// start of the text may begin with `=`: the scan reads the missing
    /// byte before it as a space, as at the start of a text.
    pub fn assemble<'a>(regions: impl IntoIterator<Item = (usize, &'a RegionLayout)>) -> Self {
        let mut t = RegionLayout::default();
        for (sep, r) in regions {
            if sep > 0 {
                // A blank separator line turns the text's final `X\n`
                // into `X\n\n`, and the text then ends in a blank line.
                t.blank_after_brace |= t.ends_brace_nl;
                t.blank_after_prologue |= t.ends_prologue_nl;
                t.ends_brace_nl = false;
                t.ends_prologue_nl = false;
            }
            t.len += sep;
            if t.len == 0 {
                t.starts_assign = r.starts_assign;
            } else {
                debug_assert!(!r.starts_assign, "a region inside the text starts with '='");
            }
            t.len += r.len;
            t.ws_chars += sep + r.ws_chars; // separator newlines are whitespace
            t.empty_lines += sep + r.empty_lines;
            t.line_lens.extend(std::iter::repeat_n(0, sep));
            t.line_lens.extend_from_slice(&r.line_lens);
            t.leading.extend_from_slice(&r.leading);
            t.tabs += r.tabs;
            t.spaces += r.spaces;
            t.open_brace_lines += r.open_brace_lines;
            t.own_line += r.own_line;
            t.same_line += r.same_line;
            t.commas += r.commas;
            t.spaced_commas += r.spaced_commas;
            t.assign_plain += r.assign_plain;
            t.assign_spaced += r.assign_spaced;
            t.kw_spaced += r.kw_spaced;
            t.kw_tight += r.kw_tight;
            t.line_comments += r.line_comments;
            t.block_comments += r.block_comments;
            t.braceless |= r.braceless;
            t.binary_spaced |= r.binary_spaced;
            t.assign_gap |= r.assign_gap;
            t.template_spaced |= r.template_spaced;
            t.blank_after_brace |= r.blank_after_brace;
            t.blank_after_prologue |= r.blank_after_prologue;
            if r.len > 0 {
                t.ends_brace_nl = r.ends_brace_nl;
                t.ends_prologue_nl = r.ends_prologue_nl;
            }
        }
        t
    }

    /// Lines indented with at least one tab.
    fn tab_lines(&self) -> usize {
        self.leading.iter().filter(|&&(_, tab)| tab).count()
    }

    /// Leading widths of the lines indented with spaces only.
    fn space_indents(&self) -> impl Iterator<Item = u32> + '_ {
        self.leading
            .iter()
            .filter(|&&(w, tab)| !tab && w > 0)
            .map(|&(w, _)| w)
    }

    /// The layout style the text was most likely rendered in. The
    /// transformation simulator detects it so that source layout traits
    /// survive a low-fidelity rewrite.
    pub fn render_style(&self) -> RenderStyle {
        let indent = if self.tab_lines() > self.space_indents().count() {
            Indent::Tab
        } else {
            match self.space_indents().min().unwrap_or(4) {
                0..=2 => Indent::Spaces(2),
                3 => Indent::Spaces(3),
                _ => Indent::Spaces(4),
            }
        };
        let brace = if self.own_line > self.same_line {
            BraceStyle::NextLine
        } else {
            BraceStyle::SameLine
        };
        RenderStyle {
            indent,
            brace,
            space_around_binary: self.binary_spaced,
            space_around_assign: self.assign_gap,
            space_after_comma: self.commas == 0 || self.spaced_commas * 2 >= self.commas,
            space_after_keyword: self.kw_spaced >= self.kw_tight,
            space_in_template_close: self.template_spaced,
            braceless_single_stmt: self.braceless,
            collapse_else_if: true,
            blank_lines_between_fns: if self.blank_after_brace { 1 } else { 0 },
            blank_line_after_prologue: self.blank_after_prologue,
        }
    }
}

/// Pushes the layout features of the text `layout` measures: one
/// scan, or the assembly of a text's region scans.
pub fn push_features(layout: &RegionLayout, out: &mut Vec<f64>) {
    let line_lens: Vec<f64> = layout.line_lens.iter().map(|&w| w as f64).collect();
    let leading_ws: Vec<f64> = layout.leading.iter().map(|&(w, _)| w as f64).collect();
    let tab_lines = layout.tab_lines();
    let mut space_indented = 0usize;
    let mut space_mod = [0usize; 3]; // widths divisible by 2 / 3 / 4
    for w in layout.space_indents() {
        space_indented += 1;
        for (slot, m) in space_mod.iter_mut().zip([2u32, 3, 4]) {
            if w % m == 0 {
                *slot += 1;
            }
        }
    }

    let line_count = line_lens.len().max(1);
    out.push(log_ratio(layout.tabs, layout.len));
    out.push(log_ratio(layout.spaces, layout.len));
    out.push(log_ratio(layout.empty_lines, line_count));
    out.push(layout.ws_chars as f64 / layout.len.max(1) as f64);
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
    out.push(if layout.open_brace_lines == 0 {
        0.0
    } else {
        layout.own_line as f64 / layout.open_brace_lines as f64
    });
    out.push(if layout.open_brace_lines == 0 {
        0.0
    } else {
        layout.same_line as f64 / layout.open_brace_lines as f64
    });
    out.push(if layout.commas == 0 {
        0.0
    } else {
        layout.spaced_commas as f64 / layout.commas as f64
    });
    out.push(if layout.assign_plain == 0 {
        0.0
    } else {
        layout.assign_spaced as f64 / layout.assign_plain as f64
    });
    out.push(if layout.kw_spaced + layout.kw_tight == 0 {
        0.0
    } else {
        layout.kw_spaced as f64 / (layout.kw_spaced + layout.kw_tight) as f64
    });
    out.push(layout.empty_lines as f64 / line_count as f64);
    out.push(log_ratio(layout.line_comments, line_count));
    out.push(log_ratio(layout.block_comments, line_count));
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthattr_lang::parse;
    use synthattr_lang::render::render_with_regions;
    use synthattr_util::prop::{gen, Runner};
    use synthattr_util::prop_assert;

    fn extract(src: &str) -> Vec<f64> {
        let mut out = Vec::new();
        push_features(&RegionLayout::scan(src), &mut out);
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
        let counts = |src| {
            let s = RegionLayout::scan(src);
            (s.assign_plain, s.assign_spaced)
        };
        assert_eq!(counts("x == y; x <= y; x += 1; x = 1;"), (1, 1));
        assert_eq!(counts("x == y; x=1;"), (1, 0));
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
    fn indent_width_modulus() {
        let two = "int main() {\n  if (1) {\n    return 1;\n  }\n  return 0;\n}\n";
        let i4 = idx("lay.indent_mod4_ratio");
        let i2 = idx("lay.indent_mod2_ratio");
        let f = extract(two);
        assert_eq!(f[i2], 1.0);
        assert!(f[i4] < 1.0);
    }

    // -----------------------------------------------------------------
    // The multi-pass reference
    // -----------------------------------------------------------------

    /// The layout detector's line counts: tab-indented lines,
    /// space-indented lines, the minimum space indent, lines that trim
    /// to `{`, and longer lines that end with `{`.
    type DetectorCounts = (usize, usize, Option<usize>, usize, usize);

    /// The detector's line counts as the single pass derives them.
    fn detector_counts(s: &RegionLayout) -> DetectorCounts {
        let min_indent = s.space_indents().min().map(|w| w as usize);
        let indent_lines = s.space_indents().count();
        (
            s.tab_lines(),
            indent_lines,
            min_indent,
            s.own_line,
            s.same_line,
        )
    }

    /// The scan as two multi-pass scanners took it before the single
    /// pass replaced them: `str::lines`, `trim`, `matches` and
    /// `contains` over the region, once for the layout features and
    /// once for the layout detection. Returns the scan and the
    /// detector's line counts, which the single pass derives from the
    /// leading runs instead of counting them.
    fn reference_scan(region: &str) -> (RegionLayout, DetectorCounts) {
        // The layout features' scanner.
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
        let (assign_plain, assign_spaced) = reference_assign_counts(region);
        // The layout detector's scanner.
        let mut tab_lines = 0usize;
        let mut indent_lines = 0usize;
        let mut min_indent: Option<usize> = None;
        let mut detector_own_line = 0usize;
        let mut tail_brace = 0usize;
        let mut braceless = false;
        for l in region.lines() {
            let t = l.trim();
            if !t.is_empty() {
                let lead: String = l.chars().take_while(|c| *c == ' ' || *c == '\t').collect();
                if lead.contains('\t') {
                    tab_lines += 1;
                } else if !lead.is_empty() {
                    indent_lines += 1;
                    min_indent = Some(min_indent.map_or(lead.len(), |m| m.min(lead.len())));
                }
            }
            if t == "{" {
                detector_own_line += 1;
            }
            if t.len() > 1 && t.ends_with('{') {
                tail_brace += 1;
            }
            braceless |= (t.starts_with("if ")
                || t.starts_with("if(")
                || t.starts_with("for ")
                || t.starts_with("for(")
                || t.starts_with("while ")
                || t.starts_with("while("))
                && t.ends_with(')');
        }
        let detector = (
            tab_lines,
            indent_lines,
            min_indent,
            detector_own_line,
            tail_brace,
        );
        let layout = RegionLayout {
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
            braceless,
            binary_spaced: region.contains(" + ")
                || region.contains(" < ")
                || region.contains(" << "),
            assign_gap: region.contains(" = "),
            template_spaced: region.contains("> >"),
            blank_after_brace: region.contains("}\n\n"),
            blank_after_prologue: region.contains(";\n\n") || region.contains(">\n\n"),
            starts_assign: region.starts_with('='),
            ends_brace_nl: region.ends_with("}\n"),
            ends_prologue_nl: region.ends_with(";\n") || region.ends_with(">\n"),
        };
        (layout, detector)
    }

    /// The separate assign-spacing pass of the layout features'
    /// scanner: `(plain, spaced)` counts of `=`.
    fn reference_assign_counts(src: &str) -> (usize, usize) {
        let bytes = src.as_bytes();
        let mut plain = 0usize;
        let mut spaced = 0usize;
        for (i, &b) in bytes.iter().enumerate() {
            if b != b'=' {
                continue;
            }
            let prev = if i > 0 { bytes[i - 1] } else { b' ' };
            let next = *bytes.get(i + 1).unwrap_or(&b' ');
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

    #[test]
    fn scan_follows_str_semantics_where_a_byte_loop_could_differ() {
        type Expect = fn(&RegionLayout) -> bool;
        let cases: &[(&str, Expect)] = &[
            // `//` counts without overlaps, apart from `/*`.
            ("///", |s| (s.line_comments, s.block_comments) == (1, 0)),
            ("////", |s| (s.line_comments, s.block_comments) == (2, 0)),
            ("//*", |s| (s.line_comments, s.block_comments) == (1, 1)),
            // Substring counts, not tokens.
            ("elif (", |s| (s.kw_spaced, s.kw_tight) == (1, 0)),
            ("whilewhile (", |s| (s.kw_spaced, s.kw_tight) == (1, 0)),
            // `\r\n` ends a line; a lone `\r` belongs to it.
            ("a\r\nb", |s| s.line_lens == [1, 1]),
            ("a\r", |s| s.line_lens == [2] && s.empty_lines == 0),
            // `char::is_whitespace` counts them and `trim` skips them.
            ("\u{a0}\u{3000}\u{85}\x0b\x0c", |s| {
                s.ws_chars == 5 && s.empty_lines == 1 && s.leading.is_empty()
            }),
            ("\u{a0}{\n\x0b\x0cif (x)\x0c\n", |s| {
                s.own_line == 1 && s.braceless && s.leading == [(0, false), (0, false)]
            }),
            ("x\u{3000}{", |s| s.same_line == 1),
            ("> >", |s| s.template_spaced),
            ("", |s| *s == RegionLayout::default()),
            ("x", |s| s.line_lens == [1] && s.leading == [(0, false)]),
            // A missing neighbour of `=` reads as a space, but `" = "`
            // needs real ones.
            ("= 1", |s| {
                (s.assign_plain, s.assign_spaced, s.assign_gap) == (1, 1, false)
            }),
            ("x =", |s| {
                (s.assign_plain, s.assign_spaced, s.assign_gap) == (1, 1, false)
            }),
            ("=", |s| s.starts_assign && s.assign_spaced == 1),
            ("x = 1;\n", |s| s.assign_gap && s.ends_prologue_nl),
        ];
        for (text, expect) in cases {
            let scan = RegionLayout::scan(text);
            assert_eq!(
                (scan.clone(), detector_counts(&scan)),
                reference_scan(text),
                "{text:?}"
            );
            assert!(expect(&scan), "{text:?}: {scan:#?}");
        }
    }

    /// What the scanner matches, with near misses and the characters
    /// where byte and `str` semantics part.
    const PIECES: &[&str] = &[
        "if", "for", "while", "el", "x", " ", "  ", "\t", "(", ")", "{", "}", ";", ",", "\n",
        "\r\n", "\r", "/", "//", "/*", "*", "=", "==", "!", "<", ">", "+", "-", "&", "|", "^", "%",
        "\u{a0}", "\u{3000}", "\u{85}", "\u{2028}", "\x0b", "\x0c", "é", "中",
    ];

    #[test]
    fn scan_matches_the_multi_pass_reference() {
        Runner::new("layout_scan_reference").cases(4096).run(
            |rng| gen::vec_of(rng, 40, |rng| PIECES[rng.next_below(PIECES.len())]),
            |pieces| {
                let text = pieces.concat();
                let scan = RegionLayout::scan(&text);
                let fast = (scan.clone(), detector_counts(&scan));
                let reference = reference_scan(&text);
                prop_assert!(fast == reference, "{text:?}\n{fast:#?}\n{reference:#?}");
                Ok(())
            },
        );
    }

    // -----------------------------------------------------------------
    // Assembly
    // -----------------------------------------------------------------

    const SOURCES: &[&str] = &[
        "",
        "int x;",
        r#"
#include <iostream>
#include <vector>
#define MAXN 100
using namespace std;
typedef long long ll;
vector<vector<int> > grid;
ll total = 0;
// a helper, x = 1
int helper(int a, int b) {
    if (a > b) return a;
    for (int i = 0; i < b; i++) a += i;
    while (a < b) a = a * 2;
    return a << 1;
}
int main() {
    int n, m;
    cin >> n >> m;
    /* block */
    for (int i = 0; i < n; ++i) {
        total += (long long)i;
        if (i % 2 == 0) {
            total = total * 2;
        } else {
            continue;
        }
    }
    printf("%d\n", n);
    cout << helper(n, m) << endl;
    return 0;
}
"#,
        "#include <cstdio>\nint f() { return 1; }\nint main() { return f(); }\n",
    ];

    /// A render style with every field drawn from `bits`.
    fn style_from_bits(bits: u32) -> RenderStyle {
        let bit = |k: u32| bits >> k & 1 == 1;
        RenderStyle {
            indent: [
                Indent::Spaces(2),
                Indent::Spaces(3),
                Indent::Spaces(4),
                Indent::Tab,
            ][(bits & 3) as usize],
            brace: if bit(2) {
                BraceStyle::NextLine
            } else {
                BraceStyle::SameLine
            },
            space_around_binary: bit(3),
            space_around_assign: bit(4),
            space_after_comma: bit(5),
            space_after_keyword: bit(6),
            space_in_template_close: bit(7),
            braceless_single_stmt: bit(8),
            collapse_else_if: bit(9),
            blank_lines_between_fns: (bits >> 10 & 3).min(2) as u8,
            blank_line_after_prologue: bit(12),
        }
    }

    #[test]
    fn assembled_region_scans_equal_the_whole_text_scan() {
        assert_eq!(RegionLayout::assemble([]), RegionLayout::scan(""));
        let units: Vec<_> = SOURCES.iter().map(|s| parse(s).unwrap()).collect();
        Runner::new("layout_assemble_regions").run(
            |rng| (rng.next_below(units.len()), rng.next_below(1 << 13) as u32),
            |&(unit, bits)| {
                let style = style_from_bits(bits);
                let (text, spans) = render_with_regions(&units[unit], &style);
                let scans: Vec<(usize, RegionLayout)> = spans
                    .iter()
                    .map(|s| (s.sep_before, RegionLayout::scan(&text[s.start..s.end])))
                    .collect();
                let assembled = RegionLayout::assemble(scans.iter().map(|(sep, r)| (*sep, r)));
                prop_assert!(assembled == RegionLayout::scan(&text), "{style:?}\n{text}");
                Ok(())
            },
        );
    }
}
