//! Style-parameterized pretty-printer.
//!
//! The renderer maps an AST to concrete C++ text under a
//! [`RenderStyle`]: indentation width, brace placement, operator
//! spacing, template spelling, and single-statement brace habits. The
//! AST itself carries all *content* style (names, comments, cast
//! spelling, `++i` vs `i++`), so the renderer is a pure layout engine:
//! for every style `s`, `parse(render(u, s))` has the same
//! [`TranslationUnit::shape_hash`] as `u` when `u` was produced by the
//! parser or the corpus generator.
//!
//! Layout styles are exactly the stylistic degrees of freedom the
//! paper's layout features measure, which is what lets the corpus
//! generator create 204 distinguishable authors from the same
//! underlying programs.

use crate::ast::*;

/// Indentation unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Indent {
    /// A fixed number of spaces (2, 3, 4, 8 are all seen in GCJ code).
    Spaces(u8),
    /// One tab character.
    Tab,
}

impl Indent {
    fn text(self) -> String {
        match self {
            Indent::Spaces(n) => " ".repeat(n as usize),
            Indent::Tab => "\t".to_string(),
        }
    }
}

/// Where opening braces go.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BraceStyle {
    /// `int main() {`
    SameLine,
    /// `int main()` newline `{`
    NextLine,
}

/// The complete layout-style configuration.
///
/// # Example
///
/// ```
/// use synthattr_lang::render::{RenderStyle, Indent, BraceStyle};
///
/// let allman = RenderStyle {
///     indent: Indent::Spaces(4),
///     brace: BraceStyle::NextLine,
///     ..RenderStyle::default()
/// };
/// assert_ne!(allman, RenderStyle::default());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RenderStyle {
    /// Indentation unit per nesting level.
    pub indent: Indent,
    /// Opening-brace placement.
    pub brace: BraceStyle,
    /// `a + b` vs `a+b`.
    pub space_around_binary: bool,
    /// `x = 1` vs `x=1` (also compound assignments).
    pub space_around_assign: bool,
    /// `f(a, b)` vs `f(a,b)`.
    pub space_after_comma: bool,
    /// `if (x)` vs `if(x)`.
    pub space_after_keyword: bool,
    /// `vector<vector<int> >` (pre-C++11 habit) vs `vector<vector<int>>`.
    pub space_in_template_close: bool,
    /// Render single-statement control bodies without braces.
    pub braceless_single_stmt: bool,
    /// Collapse `else { if ... }` chains into `else if (...)`.
    pub collapse_else_if: bool,
    /// Blank lines between top-level functions (0–2).
    pub blank_lines_between_fns: u8,
    /// Blank line after the include/using prologue.
    pub blank_line_after_prologue: bool,
}

impl Default for RenderStyle {
    fn default() -> Self {
        RenderStyle {
            indent: Indent::Spaces(4),
            brace: BraceStyle::SameLine,
            space_around_binary: true,
            space_around_assign: true,
            space_after_comma: true,
            space_after_keyword: true,
            space_in_template_close: false,
            braceless_single_stmt: false,
            collapse_else_if: true,
            blank_lines_between_fns: 1,
            blank_line_after_prologue: true,
        }
    }
}

/// Renders `unit` as C++ source under `style`.
///
/// # Example
///
/// ```
/// use synthattr_lang::{parse, render::{render, RenderStyle}};
/// let unit = parse("int main(){return 0;}")?;
/// let text = render(&unit, &RenderStyle::default());
/// assert!(text.contains("int main() {"));
/// # Ok::<(), synthattr_lang::ParseError>(())
/// ```
pub fn render(unit: &TranslationUnit, style: &RenderStyle) -> String {
    render_with_regions(unit, style).0
}

/// One item's byte range in the output of
/// [`render_with_regions`], together with the number of blank
/// separator lines emitted immediately before it.
///
/// Regions tile the text: separators are bare `'\n'` bytes between
/// regions, every region starts at column 0 and ends with `'\n'`, and
/// `start..end` of region *i* plus `sep_before` newlines of region
/// *i + 1* are contiguous.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionSpan {
    /// Byte offset of the region's first byte.
    pub start: usize,
    /// Byte offset one past the region's final `'\n'`.
    pub end: usize,
    /// Blank separator lines emitted before this region.
    pub sep_before: usize,
}

/// Number of blank separator lines [`render`] emits before each item.
///
/// A pure function of the item-kind sequence and the style, shared by
/// [`render_with_regions`] (and so [`render`]) and the incremental
/// per-item renderer so they agree byte-for-byte.
pub fn separator_plan(items: &[Item], style: &RenderStyle) -> Vec<usize> {
    let mut plan = Vec::with_capacity(items.len());
    let mut prev_was_fn = false;
    let mut prologue_done = false;
    for (i, item) in items.iter().enumerate() {
        let is_prologue = matches!(
            item,
            Item::Include { .. } | Item::Define { .. } | Item::UsingNamespace(_)
        );
        let mut sep = 0usize;
        if !is_prologue && !prologue_done && i > 0 && style.blank_line_after_prologue {
            sep += 1;
        }
        if !is_prologue {
            prologue_done = true;
        }
        if matches!(item, Item::Function(_)) && prev_was_fn {
            sep += style.blank_lines_between_fns as usize;
        }
        plan.push(sep);
        prev_was_fn = matches!(item, Item::Function(_));
    }
    plan
}

/// Renders one item in isolation at nesting level 0.
///
/// Because the `Writer` carries no cross-item state other than the
/// output buffer (the nesting level returns to 0 after every item),
/// this equals the corresponding region of [`render`] byte-for-byte —
/// `render_with_regions_equals_render` and
/// `single_item_render_equals_region` below keep that claim honest.
pub fn render_item_text(item: &Item, style: &RenderStyle) -> String {
    let mut w = Writer::new(style);
    render_item(item, &mut w);
    w.finish()
}

/// Renders `unit` like [`render`], additionally reporting each item's
/// byte region in the output.
pub fn render_with_regions(
    unit: &TranslationUnit,
    style: &RenderStyle,
) -> (String, Vec<RegionSpan>) {
    let plan = separator_plan(&unit.items, style);
    let mut w = Writer::new(style);
    let mut regions = Vec::with_capacity(unit.items.len());
    for (item, &sep_before) in unit.items.iter().zip(&plan) {
        for _ in 0..sep_before {
            w.blank_line();
        }
        let start = w.out.len();
        render_item(item, &mut w);
        regions.push(RegionSpan {
            start,
            end: w.out.len(),
            sep_before,
        });
    }
    (w.finish(), regions)
}

struct Writer<'s> {
    out: String,
    level: usize,
    style: &'s RenderStyle,
}

impl<'s> Writer<'s> {
    fn new(style: &'s RenderStyle) -> Self {
        Writer {
            out: String::new(),
            level: 0,
            style,
        }
    }

    fn finish(self) -> String {
        self.out
    }

    fn indent_text(&self) -> String {
        self.style.indent.text().repeat(self.level)
    }

    fn line(&mut self, text: &str) {
        self.out.push_str(&self.indent_text());
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn blank_line(&mut self) {
        self.out.push('\n');
    }

    /// Emits `header` followed by an opening brace per brace style and
    /// increases the nesting level.
    fn open(&mut self, header: &str) {
        match self.style.brace {
            BraceStyle::SameLine => self.line(&format!("{header} {{")),
            BraceStyle::NextLine => {
                self.line(header);
                self.line("{");
            }
        }
        self.level += 1;
    }

    fn close(&mut self, suffix: &str) {
        self.level -= 1;
        self.line(&format!("}}{suffix}"));
    }
}

fn render_item(item: &Item, w: &mut Writer<'_>) {
    match item {
        Item::Include { path, system } => {
            if *system {
                w.line(&format!("#include <{path}>"));
            } else {
                w.line(&format!("#include \"{path}\""));
            }
        }
        Item::Define { text } => w.line(&format!("#{text}")),
        Item::UsingNamespace(ns) => w.line(&format!("using namespace {ns};")),
        Item::Typedef { ty, name } => {
            w.line(&format!("typedef {} {name};", type_text(ty, w.style)))
        }
        Item::UsingAlias { name, ty } => {
            w.line(&format!("using {name} = {};", type_text(ty, w.style)))
        }
        Item::GlobalVar(decl) => {
            let text = declaration_text(decl, w.style);
            w.line(&format!("{text};"));
        }
        Item::Comment(c) => render_comment(c, w),
        Item::Function(f) => render_function(f, w),
    }
}

fn render_comment(c: &Comment, w: &mut Writer<'_>) {
    if c.block {
        w.line(&format!("/* {} */", c.text));
    } else {
        w.line(&format!("// {}", c.text));
    }
}

fn render_function(f: &Function, w: &mut Writer<'_>) {
    let params: Vec<String> = f
        .params
        .iter()
        .map(|p| format!("{} {}", type_text(&p.ty, w.style), p.name))
        .collect();
    let comma = if w.style.space_after_comma { ", " } else { "," };
    let header = format!(
        "{} {}({})",
        type_text(&f.ret, w.style),
        f.name,
        params.join(comma)
    );
    w.open(&header);
    render_block_contents(&f.body, w);
    w.close("");
}

fn render_block_contents(block: &Block, w: &mut Writer<'_>) {
    for stmt in &block.stmts {
        render_stmt(stmt, w);
    }
}

/// Whether `block` may render as a braceless single statement under
/// the current style. Control statements are excluded, which also rules
/// out any dangling-`else` ambiguity.
fn can_braceless(w: &Writer<'_>, block: &Block) -> bool {
    w.style.braceless_single_stmt
        && block.stmts.len() == 1
        && matches!(
            block.stmts[0],
            Stmt::Expr(_) | Stmt::Return(_) | Stmt::Break | Stmt::Continue | Stmt::Empty
        )
}

fn kw_paren(w: &Writer<'_>, kw: &str, inner: &str) -> String {
    if w.style.space_after_keyword {
        format!("{kw} ({inner})")
    } else {
        format!("{kw}({inner})")
    }
}

fn render_stmt(stmt: &Stmt, w: &mut Writer<'_>) {
    match stmt {
        Stmt::Decl(d) => {
            let text = declaration_text(d, w.style);
            w.line(&format!("{text};"));
        }
        Stmt::Expr(e) => {
            let text = expr_text(e, 0, w.style);
            w.line(&format!("{text};"));
        }
        Stmt::Return(None) => w.line("return;"),
        Stmt::Return(Some(e)) => {
            let text = expr_text(e, 0, w.style);
            w.line(&format!("return {text};"));
        }
        Stmt::Break => w.line("break;"),
        Stmt::Continue => w.line("continue;"),
        Stmt::Empty => w.line(";"),
        Stmt::Comment(c) => render_comment(c, w),
        Stmt::Block(b) => {
            w.line("{");
            w.level += 1;
            render_block_contents(b, w);
            w.level -= 1;
            w.line("}");
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => render_if(cond, then_branch, else_branch.as_ref(), w),
        Stmt::While { cond, body } => {
            let header = kw_paren(w, "while", &expr_text(cond, 0, w.style));
            render_control(&header, body, w, true);
        }
        Stmt::DoWhile { body, cond } => {
            w.open("do");
            render_block_contents(body, w);
            let tail = format!(
                " {};",
                kw_paren(w, "while", &expr_text(cond, 0, w.style)).trim_start_matches(' ')
            );
            w.close(&tail);
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            let init_text = match init.as_deref() {
                None => String::new(),
                Some(Stmt::Decl(d)) => declaration_text(d, w.style),
                Some(Stmt::Expr(e)) => expr_text(e, 0, w.style),
                Some(other) => unreachable!("invalid for-init statement: {other:?}"),
            };
            let cond_text = cond
                .as_ref()
                .map(|c| expr_text(c, 0, w.style))
                .unwrap_or_default();
            let step_text = step
                .as_ref()
                .map(|s| expr_text(s, 0, w.style))
                .unwrap_or_default();
            let header = kw_paren(w, "for", &format!("{init_text}; {cond_text}; {step_text}"));
            render_control(&header, body, w, true);
        }
        Stmt::ForEach {
            ty,
            name,
            by_ref,
            iterable,
            body,
        } => {
            let amp = if *by_ref { "&" } else { "" };
            let inner = format!(
                "{}{amp} {name} : {}",
                type_text(ty, w.style),
                expr_text(iterable, 0, w.style)
            );
            let header = kw_paren(w, "for", &inner);
            render_control(&header, body, w, true);
        }
    }
}

/// Renders a control header + body, with or without braces.
fn render_control(header: &str, body: &Block, w: &mut Writer<'_>, allow_braceless: bool) {
    if allow_braceless && can_braceless(w, body) {
        w.line(header);
        w.level += 1;
        render_stmt(&body.stmts[0], w);
        w.level -= 1;
    } else {
        w.open(header);
        render_block_contents(body, w);
        w.close("");
    }
}

fn render_if(cond: &Expr, then_branch: &Block, else_branch: Option<&Block>, w: &mut Writer<'_>) {
    let header = kw_paren(w, "if", &expr_text(cond, 0, w.style));
    render_if_chain(&header, then_branch, else_branch, w);
}

/// Renders an `if` given a pre-built header (which may be `else if`),
/// keeping the writer's indentation level balanced.
fn render_if_chain(
    header: &str,
    then_branch: &Block,
    else_branch: Option<&Block>,
    w: &mut Writer<'_>,
) {
    if can_braceless(w, then_branch) {
        // `can_braceless` never admits a nested `if`/loop, so the
        // dangling-else ambiguity cannot arise here.
        w.line(header);
        w.level += 1;
        render_stmt(&then_branch.stmts[0], w);
        w.level -= 1;
        if let Some(eb) = else_branch {
            render_else(eb, w, false);
        }
    } else {
        w.open(header);
        render_block_contents(then_branch, w);
        w.level -= 1;
        match else_branch {
            None => w.line("}"),
            Some(eb) => render_else(eb, w, true),
        }
    }
}

/// Renders the `else ...` continuation at the writer's current level.
/// `after_brace` is true when the then branch was braced and its
/// closing `}` has not yet been printed.
fn render_else(else_block: &Block, w: &mut Writer<'_>, after_brace: bool) {
    let prefix: String = if after_brace {
        match w.style.brace {
            BraceStyle::SameLine => "} else".to_string(),
            BraceStyle::NextLine => {
                w.line("}");
                "else".to_string()
            }
        }
    } else {
        "else".to_string()
    };
    // `else if` collapsing.
    if w.style.collapse_else_if && else_block.stmts.len() == 1 {
        if let Stmt::If {
            cond,
            then_branch,
            else_branch,
        } = &else_block.stmts[0]
        {
            let header = format!(
                "{prefix} {}",
                kw_paren(w, "if", &expr_text(cond, 0, w.style))
            );
            render_if_chain(&header, then_branch, else_branch.as_ref(), w);
            return;
        }
    }
    if can_braceless(w, else_block) {
        w.line(&prefix);
        w.level += 1;
        render_stmt(&else_block.stmts[0], w);
        w.level -= 1;
    } else {
        w.open(&prefix);
        render_block_contents(else_block, w);
        w.close("");
    }
}

// ---------------------------------------------------------------------------
// Types, declarations, expressions
// ---------------------------------------------------------------------------

/// Renders a type under `style` (template-close spacing applies).
pub fn type_text(ty: &Type, style: &RenderStyle) -> String {
    let close = |inner: &str| {
        if style.space_in_template_close && inner.ends_with('>') {
            format!("{inner} >")
        } else {
            format!("{inner}>")
        }
    };
    match ty {
        Type::Void => "void".into(),
        Type::Bool => "bool".into(),
        Type::Char => "char".into(),
        Type::Int => "int".into(),
        Type::Long => "long".into(),
        Type::LongLong => "long long".into(),
        Type::Unsigned => "unsigned".into(),
        Type::Float => "float".into(),
        Type::Double => "double".into(),
        Type::Auto => "auto".into(),
        Type::Str => "string".into(),
        Type::Named(name) => name.clone(),
        Type::Vector(inner) => {
            let i = type_text(inner, style);
            format!("vector<{}", close(&i))
        }
        Type::Set(inner) => {
            let i = type_text(inner, style);
            format!("set<{}", close(&i))
        }
        Type::Pair(a, b) => {
            let comma = if style.space_after_comma { ", " } else { "," };
            let i = format!("{}{comma}{}", type_text(a, style), type_text(b, style));
            format!("pair<{}", close(&i))
        }
        Type::Map(k, v) => {
            let comma = if style.space_after_comma { ", " } else { "," };
            let i = format!("{}{comma}{}", type_text(k, style), type_text(v, style));
            format!("map<{}", close(&i))
        }
        Type::Ref(inner) => format!("{}&", type_text(inner, style)),
        Type::Const(inner) => format!("const {}", type_text(inner, style)),
    }
}

fn declaration_text(decl: &Declaration, style: &RenderStyle) -> String {
    let comma = if style.space_after_comma { ", " } else { "," };
    let assign = if style.space_around_assign {
        " = "
    } else {
        "="
    };
    let parts: Vec<String> = decl
        .declarators
        .iter()
        .map(|d| {
            let mut s = d.name.clone();
            if let Some(extent) = &d.array {
                s.push_str(&format!("[{}]", expr_text(extent, 0, style)));
            }
            match &d.init {
                Some(Initializer::Assign(e)) => {
                    s.push_str(assign);
                    s.push_str(&expr_text(e, 0, style));
                }
                Some(Initializer::Ctor(args)) => {
                    let args: Vec<String> = args.iter().map(|a| expr_text(a, 0, style)).collect();
                    s.push_str(&format!("({})", args.join(comma)));
                }
                None => {}
            }
            s
        })
        .collect();
    format!("{} {}", type_text(&decl.ty, style), parts.join(comma))
}

/// Precedence level of an expression for parenthesization decisions.
fn prec(e: &Expr) -> u8 {
    match e {
        Expr::Assign { .. } => 0,
        Expr::Ternary { .. } => 1,
        Expr::Binary { op, .. } => 2 + op.precedence(),
        Expr::Unary { op, .. } if !op.is_postfix() => 13,
        Expr::Cast { .. } => 13,
        Expr::Unary { .. } | Expr::Call { .. } | Expr::Member { .. } | Expr::Index { .. } => 14,
        _ => 15,
    }
}

/// Renders `e`, wrapping in parentheses when its precedence is below
/// `min_prec` (a safety net: parser-produced trees carry explicit
/// [`Expr::Paren`] nodes wherever the source had parentheses).
fn expr_text(e: &Expr, min_prec: u8, style: &RenderStyle) -> String {
    let text = expr_text_inner(e, style);
    if prec(e) < min_prec {
        format!("({text})")
    } else {
        text
    }
}

fn escape_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\0' => out.push_str("\\0"),
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            other => out.push(other),
        }
    }
    out
}

fn escape_char(c: char) -> String {
    match c {
        '\n' => "\\n".into(),
        '\t' => "\\t".into(),
        '\r' => "\\r".into(),
        '\0' => "\\0".into(),
        '\\' => "\\\\".into(),
        '\'' => "\\'".into(),
        other => other.to_string(),
    }
}

fn expr_text_inner(e: &Expr, style: &RenderStyle) -> String {
    let comma = if style.space_after_comma { ", " } else { "," };
    match e {
        Expr::Int(v) => v.to_string(),
        Expr::Float(s) => s.clone(),
        Expr::Str(s) => format!("\"{}\"", escape_str(s)),
        Expr::Char(c) => format!("'{}'", escape_char(*c)),
        Expr::Bool(b) => b.to_string(),
        Expr::Ident(name) => name.clone(),
        Expr::Paren(inner) => format!("({})", expr_text(inner, 0, style)),
        Expr::Unary { op, expr } => {
            if op.is_postfix() {
                format!("{}{}", expr_text(expr, 14, style), op.symbol())
            } else {
                // `- -x` must not fuse into `--x`.
                let operand = expr_text(expr, 13, style);
                let sep = match (op, operand.as_bytes().first()) {
                    (UnaryOp::Neg, Some(b'-')) | (UnaryOp::Plus, Some(b'+')) => " ",
                    _ => "",
                };
                format!("{}{sep}{operand}", op.symbol())
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let p = 2 + op.precedence();
            let l = expr_text(lhs, p, style);
            let r = expr_text(rhs, p + 1, style);
            if style.space_around_binary {
                format!("{l} {} {r}", op.symbol())
            } else {
                format!("{l}{}{r}", op.symbol())
            }
        }
        Expr::Assign { op, lhs, rhs } => {
            let l = expr_text(lhs, 13, style);
            let r = expr_text(rhs, 0, style);
            if style.space_around_assign {
                format!("{l} {} {r}", op.symbol())
            } else {
                format!("{l}{}{r}", op.symbol())
            }
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
        } => {
            let c = expr_text(cond, 2, style);
            let t = expr_text(then_expr, 0, style);
            let f = expr_text(else_expr, 0, style);
            format!("{c} ? {t} : {f}")
        }
        Expr::Call { callee, args } => {
            let callee_text = expr_text(callee, 14, style);
            let args: Vec<String> = args.iter().map(|a| expr_text(a, 0, style)).collect();
            format!("{callee_text}({})", args.join(comma))
        }
        Expr::Member {
            base,
            member,
            arrow,
        } => {
            let b = expr_text(base, 14, style);
            let sep = if *arrow { "->" } else { "." };
            format!("{b}{sep}{member}")
        }
        Expr::Index { base, index } => {
            let b = expr_text(base, 14, style);
            format!("{b}[{}]", expr_text(index, 0, style))
        }
        Expr::Cast { ty, expr } => {
            format!("({}){}", type_text(ty, style), expr_text(expr, 13, style))
        }
        Expr::StaticCast { ty, expr } => {
            let close = if style.space_in_template_close && type_text(ty, style).ends_with('>') {
                format!("static_cast<{} >", type_text(ty, style))
            } else {
                format!("static_cast<{}>", type_text(ty, style))
            };
            format!("{close}({})", expr_text(expr, 0, style))
        }
        Expr::InitList(elems) => {
            let elems: Vec<String> = elems.iter().map(|x| expr_text(x, 0, style)).collect();
            format!("{{{}}}", elems.join(comma))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    const PROGRAM: &str = r#"
#include <iostream>
#include <vector>
using namespace std;
typedef long long ll;
int cache[100];
int helper(int a, vector<int>& xs) {
    int acc = a;
    for (auto& x : xs) {
        acc += x;
    }
    if (acc > 10) {
        return acc;
    } else if (acc > 5) {
        return acc * 2;
    } else {
        return 0;
    }
}
int main() {
    int n;
    double t = 0;
    cin >> n;
    vector<int> xs(n, 0);
    for (int i = 0; i < n; ++i) {
        cin >> xs[i];
        t = max(t, (double)xs[i] / 2.0);
    }
    while (n > 0) {
        n--;
    }
    do {
        n++;
    } while (n < 1);
    cout << "Case #" << 1 << ": " << helper(n, xs) ? 1 : 0 << endl;
    return 0;
}
"#;

    fn all_styles() -> Vec<RenderStyle> {
        let mut styles = Vec::new();
        for &indent in &[Indent::Spaces(2), Indent::Spaces(4), Indent::Tab] {
            for &brace in &[BraceStyle::SameLine, BraceStyle::NextLine] {
                for &braceless in &[false, true] {
                    for &spacing in &[false, true] {
                        styles.push(RenderStyle {
                            indent,
                            brace,
                            braceless_single_stmt: braceless,
                            space_around_binary: spacing,
                            space_after_comma: spacing,
                            space_after_keyword: spacing,
                            space_in_template_close: !spacing,
                            ..RenderStyle::default()
                        });
                    }
                }
            }
        }
        styles
    }

    #[test]
    fn render_with_regions_equals_render() {
        let unit = parse(PROGRAM.replace("? 1 : 0", "").as_str())
            .unwrap_or_else(|_| parse("int main() { return 0; }").unwrap());
        let rich = parse(
            "#include <iostream>\nusing namespace std;\nint f() { return 1; }\nint g() { return 2; }\nint main() { return f() + g(); }",
        )
        .unwrap();
        for unit in [&unit, &rich, &parse("").unwrap()] {
            for style in all_styles() {
                for blanks in [0u8, 1, 2] {
                    let style = RenderStyle {
                        blank_lines_between_fns: blanks,
                        blank_line_after_prologue: blanks > 0,
                        ..style.clone()
                    };
                    let plain = render(unit, &style);
                    let (text, regions) = render_with_regions(unit, &style);
                    assert_eq!(text, plain);
                    assert_eq!(regions.len(), unit.items.len());
                    // Regions + separators tile the text.
                    let mut pos = 0usize;
                    for r in &regions {
                        assert_eq!(r.start, pos + r.sep_before);
                        assert_eq!(&text[pos..r.start], "\n".repeat(r.sep_before));
                        assert!(text[r.start..r.end].ends_with('\n') || r.start == r.end);
                        pos = r.end;
                    }
                    assert_eq!(pos, text.len());
                }
            }
        }
    }

    #[test]
    fn single_item_render_equals_region() {
        let unit = parse(
            "#include <iostream>\nusing namespace std;\ntypedef long long ll;\nll cache = 0;\nint f(int a) { if (a > 0) { return a; } return -a; }\nint main() { return f(3); }",
        )
        .unwrap();
        for style in all_styles() {
            let style = RenderStyle {
                blank_lines_between_fns: 1,
                blank_line_after_prologue: true,
                ..style
            };
            let (text, regions) = render_with_regions(&unit, &style);
            for (item, r) in unit.items.iter().zip(&regions) {
                assert_eq!(render_item_text(item, &style), &text[r.start..r.end]);
            }
            let plan = separator_plan(&unit.items, &style);
            let seps: Vec<usize> = regions.iter().map(|r| r.sep_before).collect();
            assert_eq!(plan, seps);
            assert_eq!(text, render(&unit, &style));
        }
    }

    #[test]
    fn roundtrip_shape_under_every_style() {
        // Fix the deliberate precedence quirk in the fixture first.
        let src = PROGRAM.replace(
            "cout << \"Case #\" << 1 << \": \" << helper(n, xs) ? 1 : 0 << endl;",
            "cout << \"Case #\" << 1 << \": \" << (helper(n, xs) > 0 ? 1 : 0) << endl;",
        );
        let unit = parse(&src).unwrap();
        for (i, style) in all_styles().iter().enumerate() {
            let text = render(&unit, style);
            let reparsed = parse(&text).unwrap_or_else(|e| panic!("style {i}: {e}\n{text}"));
            assert_eq!(
                unit.shape_hash(),
                reparsed.shape_hash(),
                "style {i} changed shape:\n{text}"
            );
        }
    }

    #[test]
    fn styles_produce_distinct_text() {
        let unit = parse("int main() { if (1) { return 1; } return 0; }").unwrap();
        let texts: Vec<String> = all_styles().iter().map(|s| render(&unit, s)).collect();
        let mut unique = texts.clone();
        unique.sort();
        unique.dedup();
        assert!(
            unique.len() >= 12,
            "expected many distinct renderings, got {}",
            unique.len()
        );
    }

    #[test]
    fn same_line_vs_next_line_braces() {
        let unit = parse("int main() { return 0; }").unwrap();
        let same = render(
            &unit,
            &RenderStyle {
                brace: BraceStyle::SameLine,
                ..RenderStyle::default()
            },
        );
        let next = render(
            &unit,
            &RenderStyle {
                brace: BraceStyle::NextLine,
                ..RenderStyle::default()
            },
        );
        assert!(same.contains("int main() {"));
        assert!(next.contains("int main()\n{"));
    }

    #[test]
    fn braceless_single_statement_bodies() {
        let unit = parse("int main() { if (1) return 1; for (;;) break; return 0; }").unwrap();
        let text = render(
            &unit,
            &RenderStyle {
                braceless_single_stmt: true,
                ..RenderStyle::default()
            },
        );
        assert!(text.contains("if (1)\n        return 1;"), "{text}");
        assert!(!text.contains("if (1) {"), "{text}");
        let reparsed = parse(&text).unwrap();
        assert_eq!(unit.shape_hash(), reparsed.shape_hash());
    }

    #[test]
    fn dangling_else_gets_braces() {
        let unit =
            parse("int f(int x) { if (x) { if (x > 1) return 2; } else return 3; return 0; }")
                .unwrap();
        let text = render(
            &unit,
            &RenderStyle {
                braceless_single_stmt: true,
                ..RenderStyle::default()
            },
        );
        let reparsed = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(unit.shape_hash(), reparsed.shape_hash(), "{text}");
    }

    #[test]
    fn else_if_collapses() {
        let unit =
            parse("int f(int x) { if (x > 0) { return 1; } else if (x < 0) { return -1; } else { return 0; } }")
                .unwrap();
        let text = render(&unit, &RenderStyle::default());
        assert!(
            text.contains("} else if (x < 0) {") || text.contains("else if (x < 0)"),
            "{text}"
        );
        let reparsed = parse(&text).unwrap();
        assert_eq!(unit.shape_hash(), reparsed.shape_hash());
    }

    #[test]
    fn template_close_spacing() {
        let unit = parse("int main() { vector<vector<int>> g; return 0; }").unwrap();
        let old = render(
            &unit,
            &RenderStyle {
                space_in_template_close: true,
                ..RenderStyle::default()
            },
        );
        assert!(old.contains("vector<vector<int> >"), "{old}");
        let reparsed = parse(&old).unwrap();
        assert_eq!(unit.shape_hash(), reparsed.shape_hash());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let unit = parse(r#"int main() { cout << "a\tb\n" << '\n'; return 0; }"#).unwrap();
        let text = render(&unit, &RenderStyle::default());
        assert!(text.contains(r#""a\tb\n""#), "{text}");
        assert!(text.contains(r#"'\n'"#), "{text}");
        let reparsed = parse(&text).unwrap();
        assert_eq!(unit.shape_hash(), reparsed.shape_hash());
    }

    #[test]
    fn negative_literal_does_not_fuse() {
        use crate::ast::UnaryOp;
        let e = Expr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(Expr::Int(1)),
            }),
        };
        let text = expr_text(&e, 0, &RenderStyle::default());
        assert_eq!(text, "- -1");
    }

    #[test]
    fn auto_parenthesization_safety_net() {
        // A hand-built tree lacking explicit Paren nodes still renders
        // with correct semantics.
        let e = Expr::bin(
            BinaryOp::Mul,
            Expr::bin(BinaryOp::Add, Expr::ident("a"), Expr::ident("b")),
            Expr::ident("c"),
        );
        let text = expr_text(&e, 0, &RenderStyle::default());
        assert_eq!(text, "(a + b) * c");
    }

    #[test]
    fn ctor_and_assign_initializers_render_differently() {
        let unit =
            parse("int main() { vector<int> a(3, 7); vector<int> b = {3, 7}; return 0; }").unwrap();
        let text = render(&unit, &RenderStyle::default());
        assert!(text.contains("a(3, 7)"), "{text}");
        assert!(text.contains("b = {3, 7}"), "{text}");
        let reparsed = parse(&text).unwrap();
        assert_eq!(unit.shape_hash(), reparsed.shape_hash());
    }

    #[test]
    fn comments_render_in_their_original_form() {
        let unit = parse("// top\nint main() { /* mid */ return 0; }").unwrap();
        let text = render(&unit, &RenderStyle::default());
        assert!(text.contains("// top"));
        assert!(text.contains("/* mid */"));
    }
}
