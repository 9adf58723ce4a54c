//! The AST-level code transformation engine.
//!
//! `Transformer::transform` models one ChatGPT "rewrite this code in a
//! different style" request: it parses the input, rewrites content
//! style toward a sampled latent pool style (identifiers, casts,
//! increments, compound assignments, loop forms, IO idiom, comments,
//! optional per-case helper extraction — the paper's Figure 4a), and
//! re-renders under a per-dimension *blend* of the source's detected
//! layout and the target layout. The blend probability is the pool's
//! `fidelity`: at fidelity 1 the output is fully in-pool; below 1,
//! source traits leak through, producing the hybrid styles the paper
//! observes on human-seeded transformations.
//!
//! The rewrites walk the tree through [`synthattr_lang::visit`]:
//! every expression, every block, and the declaration sites that feed
//! the type environment. Only `has_direct_continue` recurses on its
//! own, because it stops at nested loops.
//!
//! The rewrites the semantic fingerprint undoes in the same direction
//! (stream chains, `scanf`/`printf` → stream, declaration splitting,
//! range-`for` lowering, `for` → `while`, ternary assignment →
//! `if`/`else`) are the shared ones of [`synthattr_lang::rewrite`], so
//! the fingerprint's normal form matches them by construction. This
//! module keeps their RNG gates, the `for` → `while` preconditions
//! (init and step present, no `continue` bound to the loop), the
//! lowered loop's index naming, and the directions only the simulator
//! takes: stream → stdio, merging declarations, `while` → `for`,
//! `if`/`else` → ternary, and compound assignments both ways.

use crate::error::GptError;
use crate::pool::YearPool;
use std::collections::HashMap;
use synthattr_features::layout::RegionLayout;
use synthattr_gen::naming::{apply_case, NamingStyle, Verbosity};
use synthattr_gen::style::AuthorStyle;
use synthattr_lang::ast::*;
use synthattr_lang::parse;
use synthattr_lang::render::{render, RenderStyle};
use synthattr_lang::rewrite::{self, chain_operands, rebuild_chain};
use synthattr_lang::token::is_reserved_name;
use synthattr_lang::visit::{
    declared_names, for_each_block_mut, for_each_decl_site, for_each_expr_mut, rename_idents,
    unrenameable_names, DeclSite,
};
use synthattr_util::Pcg64;

/// The transformation engine bound to one year pool.
#[derive(Debug, Clone)]
pub struct Transformer<'a> {
    pool: &'a YearPool,
}

impl<'a> Transformer<'a> {
    /// Creates an engine over `pool`.
    pub fn new(pool: &'a YearPool) -> Self {
        Transformer { pool }
    }

    /// The pool in use.
    pub fn pool(&self) -> &YearPool {
        self.pool
    }

    /// Applies one simulated LLM transformation of `source` toward the
    /// pool style at `pool_idx`.
    ///
    /// # Errors
    ///
    /// Returns [`GptError::Parse`] when `source` is not in the
    /// supported C++ subset (the simulator, like the paper's pipeline,
    /// only handles parseable inputs).
    pub fn transform(
        &self,
        source: &str,
        pool_idx: usize,
        rng: &mut Pcg64,
    ) -> Result<String, GptError> {
        let unit = parse(source).map_err(GptError::Parse)?;
        let src_render = detect_render_style(source);
        let (unit, style) = self.rewrite_styled(&src_render, unit, pool_idx, rng);
        let out = render(&unit, &style);
        #[cfg(debug_assertions)]
        debug_assert_semantics_preserved(source, &out)?;
        Ok(out)
    }

    /// The content-style rewrites plus the layout blend, factored out of
    /// [`Transformer::transform`] so the incremental frontend
    /// ([`crate::incr`]) can run the identical rewrite pass while
    /// supplying a cached source-layout detection and rendering from
    /// cached per-item pieces. Consumes exactly the same RNG stream as
    /// the rewrite section of `transform` — every `next_bool`
    /// gate fires in the same order whether or not the caller's layout
    /// detection and render were cached.
    pub(crate) fn rewrite_styled(
        &self,
        src_render: &RenderStyle,
        mut unit: TranslationUnit,
        pool_idx: usize,
        rng: &mut Pcg64,
    ) -> (TranslationUnit, RenderStyle) {
        let target = &self.pool.styles[pool_idx].style;
        let fidelity = self.pool.fidelity;
        // NOTE: the type environment is captured *before* renaming, so
        // IO-idiom conversion only fires for statements whose variables
        // kept their pre-rename names. This partial adoption is part of
        // the hybridization model (and of the calibration recorded in
        // EXPERIMENTS.md): real restyling is rarely total either, and
        // the resulting mixed-idiom outputs are what keep human-seeded
        // NCT the most style-diverse setting, as in the paper.
        let env = TypeEnv::of(&unit);

        // Content-style rewrites, each adopted with probability
        // `fidelity` (otherwise the source trait is retained).
        if rng.next_bool(fidelity) {
            // The vocabulary is keyed on the pool style's *anchor*, not
            // the per-sample stream: every sample rewritten toward one
            // latent style family reuses the same small word pool in
            // the same order, so the family produces one consistent
            // lexical signature across challenges — the mechanism
            // behind the paper's label collapse (≤12 styles, one label
            // covering 77% in 2017).
            let anchor = self.pool.styles[pool_idx].anchor;
            let vocab = StyleVocab::for_anchor(self.pool.seed, self.pool.year, anchor);
            rename_all(&mut unit, target.naming, &vocab);
        }
        if rng.next_bool(fidelity) {
            flip_casts(&mut unit, target.structure.static_cast);
        }
        if rng.next_bool(fidelity) {
            set_incdec(&mut unit, target.loops.post_increment);
        }
        if rng.next_bool(fidelity) {
            set_compound(&mut unit, target.structure.compound_assign);
        }
        if rng.next_bool(fidelity * 0.4) {
            convert_loops(&mut unit, target.loops.while_bias > 0.5, rng);
        }
        if rng.next_bool(fidelity) {
            convert_conditionals(&mut unit, target.structure.ternary);
        }
        if rng.next_bool(fidelity) {
            restyle_declarations(&mut unit, target.structure.merge_decls);
        }
        if rng.next_bool(fidelity * 0.3) {
            lower_foreach(&mut unit, rng);
        }
        if rng.next_bool(fidelity) {
            if target.io.stdio {
                stream_to_stdio(&mut unit, &env);
            } else {
                stdio_to_stream(&mut unit, target.io.endl);
            }
        }
        if rng.next_bool(fidelity) {
            swap_endl(&mut unit, target.io.endl);
        }
        if rng.next_bool(fidelity) {
            restyle_comments(&mut unit, target, rng);
        }
        if target.structure.helper_bias > 0.5 && rng.next_bool(fidelity * 0.6) {
            // Safety gate: helper extraction moves statements out of
            // `main`; if the moved block reads a local that stays
            // behind (the loop counter, a pre-loop accumulator), the
            // helper would reference an undeclared name. Run the
            // extraction on a candidate and commit only when the
            // resolver sees no new undeclared identifiers. The RNG is
            // drawn on the candidate path either way, so skipping a
            // bad extraction never perturbs later sampling.
            let before = synthattr_analysis::resolve(&unit).undeclared.len();
            let mut candidate = unit.clone();
            extract_case_helper(&mut candidate, target, &env, rng);
            if synthattr_analysis::resolve(&candidate).undeclared.len() <= before {
                unit = candidate;
            }
        }

        // Layout blend: each field adopts the target with probability
        // `fidelity`, else keeps the detected source value.
        let style = blend_render_styles(src_render, &target.render, fidelity, rng);
        (unit, style)
    }
}

/// Debug-build gate behind every transform: the output must introduce
/// no new error-severity diagnostics and must keep the input's
/// semantic fingerprint. This is the checked form of the paper's
/// style-not-semantics assumption (see `synthattr-analysis`).
///
/// Re-analysis failures surface as typed [`GptError::Parse`] values
/// (not `expect` panics) so the fault-injected service layer can treat
/// them like any other invalid response; the fingerprint and lint
/// comparisons themselves keep assert semantics — a violation there is
/// a transformer bug, not an input problem.
#[cfg(debug_assertions)]
pub(crate) fn debug_assert_semantics_preserved(source: &str, out: &str) -> Result<(), GptError> {
    use synthattr_analysis::{fingerprint_source, new_errors, Analyzer};
    let analyzer = Analyzer::new();
    let pre = analyzer.analyze_source(source).map_err(GptError::Parse)?;
    let post = analyzer.analyze_source(out).map_err(GptError::Parse)?;
    let fresh = new_errors(&pre, &post);
    assert!(
        fresh.is_empty(),
        "transform introduced error diagnostics:\n{}\n--- input ---\n{source}\n--- output ---\n{out}",
        fresh
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    let fp_in = fingerprint_source(source).map_err(GptError::Parse)?;
    let fp_out = fingerprint_source(out).map_err(GptError::Parse)?;
    assert_eq!(
        fp_in, fp_out,
        "transform changed the semantic fingerprint\n--- input ---\n{source}\n--- output ---\n{out}"
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Layout detection and blending
// ---------------------------------------------------------------------------

/// Heuristically recovers the layout style of raw source text (used to
/// let source layout traits survive low-fidelity transformations).
///
/// The whole text is one region: this is
/// [`RegionLayout::render_style`] of one [`RegionLayout::scan`], the
/// scan the layout features read.
pub fn detect_render_style(src: &str) -> RenderStyle {
    RegionLayout::scan(src).render_style()
}

fn blend_render_styles(
    source: &RenderStyle,
    target: &RenderStyle,
    fidelity: f64,
    rng: &mut Pcg64,
) -> RenderStyle {
    macro_rules! pick {
        ($field:ident) => {
            if rng.next_bool(fidelity) {
                target.$field.clone()
            } else {
                source.$field.clone()
            }
        };
    }
    RenderStyle {
        indent: pick!(indent),
        brace: pick!(brace),
        space_around_binary: pick!(space_around_binary),
        space_around_assign: pick!(space_around_assign),
        space_after_comma: pick!(space_after_comma),
        space_after_keyword: pick!(space_after_keyword),
        space_in_template_close: pick!(space_in_template_close),
        braceless_single_stmt: pick!(braceless_single_stmt),
        collapse_else_if: true,
        blank_lines_between_fns: pick!(blank_lines_between_fns),
        blank_line_after_prologue: pick!(blank_line_after_prologue),
    }
}

// ---------------------------------------------------------------------------
// Type environment (drives IO conversion and helper extraction)
// ---------------------------------------------------------------------------

/// Rough scalar types for IO-format inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    Int,
    Long,
    Double,
    Str,
    Char,
}

/// Maps declared variable names to types and function names to return
/// types.
struct TypeEnv {
    vars: HashMap<String, Type>,
    fns: HashMap<String, Type>,
}

impl TypeEnv {
    fn of(unit: &TranslationUnit) -> Self {
        let mut vars = HashMap::new();
        let mut fns = HashMap::new();
        // A parameter's type replaces any earlier one for its name; a
        // variable keeps the first type seen for its name.
        for_each_decl_site(unit, &mut |site| match site {
            DeclSite::Function(f) => {
                fns.insert(f.name.clone(), f.ret.clone());
            }
            DeclSite::Param(p) => {
                vars.insert(p.name.clone(), p.ty.clone());
            }
            DeclSite::Var(name, ty) => {
                vars.entry(name.to_string()).or_insert_with(|| ty.clone());
            }
            DeclSite::Alias(_) => {}
        });
        TypeEnv { vars, fns }
    }

    fn scalar(&self, ty: &Type) -> Option<Ty> {
        match ty {
            Type::Int | Type::Bool | Type::Unsigned => Some(Ty::Int),
            Type::Long | Type::LongLong => Some(Ty::Long),
            Type::Named(n) if n == "ll" => Some(Ty::Long),
            Type::Float | Type::Double => Some(Ty::Double),
            Type::Str => Some(Ty::Str),
            Type::Char => Some(Ty::Char),
            Type::Ref(inner) | Type::Const(inner) => self.scalar(inner),
            _ => None,
        }
    }

    /// Best-effort type of an expression; `None` means "don't touch".
    fn infer(&self, e: &Expr) -> Option<Ty> {
        match e {
            Expr::Int(_) | Expr::Bool(_) => Some(Ty::Int),
            Expr::Float(_) => Some(Ty::Double),
            Expr::Str(_) => Some(Ty::Str),
            Expr::Char(_) => Some(Ty::Char),
            Expr::Ident(name) => self.vars.get(name).and_then(|t| self.scalar(t)),
            Expr::Paren(inner) => self.infer(inner),
            Expr::Cast { ty, .. } | Expr::StaticCast { ty, .. } => self.scalar(ty),
            Expr::Unary { expr, .. } => self.infer(expr),
            Expr::Assign { lhs, .. } => self.infer(lhs),
            Expr::Ternary {
                then_expr,
                else_expr,
                ..
            } => promote(self.infer(then_expr), self.infer(else_expr)),
            Expr::Binary { op, lhs, rhs } => match op {
                BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
                    promote(self.infer(lhs), self.infer(rhs))
                }
                BinaryOp::Lt
                | BinaryOp::Gt
                | BinaryOp::Le
                | BinaryOp::Ge
                | BinaryOp::Eq
                | BinaryOp::Ne
                | BinaryOp::And
                | BinaryOp::Or => Some(Ty::Int),
                _ => None,
            },
            Expr::Call { callee, .. } => match callee.unparenthesized() {
                Expr::Ident(name) => match name.as_str() {
                    "max" | "min" | "abs" => None, // depends on args; be safe
                    _ => self.fns.get(name).and_then(|t| self.scalar(t)),
                },
                Expr::Member { member, .. } if member == "size" => Some(Ty::Int),
                Expr::Member { member, .. } if member == "c_str" => Some(Ty::Str),
                _ => None,
            },
            Expr::Index { base, .. } => match base.unparenthesized() {
                Expr::Ident(name) => match self.vars.get(name) {
                    Some(Type::Str) => Some(Ty::Char),
                    Some(Type::Vector(inner)) => self.scalar(inner),
                    Some(other) => self.scalar(other),
                    None => None,
                },
                _ => None,
            },
            _ => None,
        }
    }
}

fn promote(a: Option<Ty>, b: Option<Ty>) -> Option<Ty> {
    match (a?, b?) {
        (Ty::Str, _) | (_, Ty::Str) => None,
        (Ty::Double, _) | (_, Ty::Double) => Some(Ty::Double),
        (Ty::Long, _) | (_, Ty::Long) => Some(Ty::Long),
        _ => Some(Ty::Int),
    }
}

// ---------------------------------------------------------------------------
// Identifier renaming
// ---------------------------------------------------------------------------

const VAR_WORDS: &[&[&str]] = &[
    &["val"],
    &["num"],
    &["count"],
    &["idx"],
    &["pos"],
    &["total"],
    &["result"],
    &["temp"],
    &["item"],
    &["cur"],
    &["best"],
    &["limit"],
    &["data"],
    &["sum"],
    &["ans"],
    &["len"],
    &["speed"],
    &["dist"],
    &["time", "val"],
    &["flag"],
    &["left"],
    &["right"],
    &["aux"],
    &["key"],
    &["low"],
    &["high"],
    &["max", "time"],
    &["case", "result"],
    &["num", "items"],
    &["input", "value"],
    &["test", "count"],
    &["cur", "val"],
    &["horse", "position"],
    &["horse", "speed"],
    &["max", "distance"],
    &["case", "number"],
];

const FN_WORDS: &[&[&str]] = &[
    &["solve"],
    &["process"],
    &["compute"],
    &["calc"],
    &["work"],
    &["run"],
    &["eval"],
    &["check"],
    &["solve", "case"],
    &["process", "case"],
    &["handle", "case"],
    &["solve", "test", "case"],
    &["do", "work"],
    &["compute", "answer"],
];

const SHORT_NAMES: &[&str] = &[
    "a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "m", "n", "p", "q", "r", "s", "t", "u",
    "v", "w", "x", "y", "z",
];

/// A style family's fixed renaming vocabulary: a small shuffled slice
/// of the word pools, reused in order for every program, so the family
/// has a stable lexical fingerprint.
#[derive(Debug, Clone)]
pub struct StyleVocab {
    vars: Vec<&'static [&'static str]>,
    fns: Vec<&'static [&'static str]>,
    shorts: Vec<&'static str>,
}

impl StyleVocab {
    /// The vocabulary of anchor `anchor` in `year` under `seed`.
    pub fn for_anchor(seed: u64, year: u32, anchor: usize) -> Self {
        let mut rng = Pcg64::seed_from(
            seed,
            &["style-vocab", &year.to_string(), &anchor.to_string()],
        );
        let vars = rng
            .sample_indices(VAR_WORDS.len(), 12)
            .into_iter()
            .map(|i| VAR_WORDS[i])
            .collect();
        let fns = rng
            .sample_indices(FN_WORDS.len(), 4)
            .into_iter()
            .map(|i| FN_WORDS[i])
            .collect();
        let shorts = rng
            .sample_indices(SHORT_NAMES.len(), 10)
            .into_iter()
            .map(|i| SHORT_NAMES[i])
            .collect();
        StyleVocab { vars, fns, shorts }
    }
}

/// Renames every user-declared identifier into `naming`, assigning
/// vocabulary entries by position so the mapping is deterministic for
/// a given (program, vocabulary) pair.
fn rename_all(unit: &mut TranslationUnit, naming: NamingStyle, vocab: &StyleVocab) {
    // Typedef/using/define names are declared names but live in type
    // and macro positions `rename_idents` cannot rewrite; renaming
    // them would orphan their uses, so they are skipped (and their
    // names stay off-limits to the `used` collision check below).
    let skip = unrenameable_names(unit);
    let names: Vec<String> = declared_names(unit) // sorted and deduplicated
        .into_iter()
        .filter(|n| !skip.contains(n))
        .collect();
    let fn_names: Vec<String> = unit
        .functions()
        .filter(|f| f.name != "main")
        .map(|f| f.name.clone())
        .collect();
    let mut mapping = HashMap::new();
    let mut used: Vec<String> = skip;
    let mut var_i = 0usize;
    let mut fn_i = 0usize;
    for name in names {
        let is_fn = fn_names.contains(&name);
        let mut candidate = match (naming.verbosity, is_fn) {
            (Verbosity::Short, false) => {
                let c = vocab.shorts[var_i % vocab.shorts.len()].to_string();
                var_i += 1;
                c
            }
            (_, true) => {
                let words = vocab.fns[fn_i % vocab.fns.len()];
                fn_i += 1;
                apply_case(words, naming.case_style)
            }
            (Verbosity::Medium, false) | (Verbosity::Long, false) => {
                let words = vocab.vars[var_i % vocab.vars.len()];
                var_i += 1;
                apply_case(words, naming.case_style)
            }
        };
        while used.iter().any(|u| u == &candidate) || is_reserved_name(&candidate) {
            candidate.push(match naming.verbosity {
                Verbosity::Short => '2',
                _ => 'X',
            });
        }
        used.push(candidate.clone());
        mapping.insert(name, candidate);
    }
    rename_idents(unit, &mapping);
}

// ---------------------------------------------------------------------------
// Micro-style rewrites
// ---------------------------------------------------------------------------

fn flip_casts(unit: &mut TranslationUnit, to_static: bool) {
    for_each_expr_mut(unit, &mut |e| match e {
        Expr::Cast { ty, expr } if to_static => {
            let inner = std::mem::replace(expr, Box::new(Expr::Int(0)));
            let inner = match *inner {
                Expr::Paren(p) => p,
                other => Box::new(other),
            };
            *e = Expr::StaticCast {
                ty: ty.clone(),
                expr: inner,
            };
        }
        Expr::StaticCast { ty, expr } if !to_static => {
            let inner = std::mem::replace(expr, Box::new(Expr::Int(0)));
            let wrapped = match *inner {
                p @ (Expr::Int(_)
                | Expr::Float(_)
                | Expr::Ident(_)
                | Expr::Paren(_)
                | Expr::Call { .. }
                | Expr::Member { .. }
                | Expr::Index { .. }) => Box::new(p),
                other => Box::new(Expr::Paren(Box::new(other))),
            };
            *e = Expr::Cast {
                ty: ty.clone(),
                expr: wrapped,
            };
        }
        _ => {}
    });
}

fn set_incdec(unit: &mut TranslationUnit, post: bool) {
    let fix = |e: &mut Expr| {
        if let Expr::Unary { op, .. } = e {
            *op = match (*op, post) {
                (UnaryOp::PreInc | UnaryOp::PostInc, true) => UnaryOp::PostInc,
                (UnaryOp::PreInc | UnaryOp::PostInc, false) => UnaryOp::PreInc,
                (UnaryOp::PreDec | UnaryOp::PostDec, true) => UnaryOp::PostDec,
                (UnaryOp::PreDec | UnaryOp::PostDec, false) => UnaryOp::PreDec,
                (other, _) => other,
            };
        }
    };
    for_each_block_mut(unit, &mut |block| {
        for stmt in &mut block.stmts {
            match stmt {
                // Only value-unused positions are semantics-preserving.
                Stmt::Expr(e) => fix(e),
                Stmt::For { step: Some(s), .. } => fix(s),
                _ => {}
            }
        }
    });
}

fn set_compound(unit: &mut TranslationUnit, compound: bool) {
    for_each_block_mut(unit, &mut |block| {
        for stmt in &mut block.stmts {
            let (Stmt::Expr(e) | Stmt::For { step: Some(e), .. }) = stmt else {
                continue;
            };
            if compound {
                // x = x op v  =>  x op= v
                let Expr::Assign {
                    op: AssignOp::Assign,
                    lhs,
                    rhs,
                } = e
                else {
                    continue;
                };
                let Expr::Ident(x) = lhs.as_ref() else {
                    continue;
                };
                let Expr::Binary {
                    op,
                    lhs: bl,
                    rhs: br,
                } = rhs.as_ref()
                else {
                    continue;
                };
                let Expr::Ident(bx) = bl.as_ref() else {
                    continue;
                };
                if bx != x {
                    continue;
                }
                let aop = match op {
                    BinaryOp::Add => AssignOp::Add,
                    BinaryOp::Sub => AssignOp::Sub,
                    BinaryOp::Mul => AssignOp::Mul,
                    BinaryOp::Div => AssignOp::Div,
                    BinaryOp::Mod => AssignOp::Mod,
                    _ => continue,
                };
                *e = Expr::assign(aop, Expr::Ident(x.clone()), (**br).clone());
            } else {
                // x op= v  =>  x = x op v
                let Expr::Assign { op, lhs, rhs } = e else {
                    continue;
                };
                let bop = match op {
                    AssignOp::Add => BinaryOp::Add,
                    AssignOp::Sub => BinaryOp::Sub,
                    AssignOp::Mul => BinaryOp::Mul,
                    AssignOp::Div => BinaryOp::Div,
                    AssignOp::Mod => BinaryOp::Mod,
                    AssignOp::Assign => continue,
                };
                let Expr::Ident(x) = lhs.as_ref() else {
                    continue;
                };
                let rhs_needs_paren = matches!(
                    rhs.as_ref(),
                    Expr::Binary { .. } | Expr::Ternary { .. } | Expr::Assign { .. }
                );
                let r = if rhs_needs_paren {
                    Expr::Paren(rhs.clone())
                } else {
                    (**rhs).clone()
                };
                *e = Expr::assign(
                    AssignOp::Assign,
                    Expr::Ident(x.clone()),
                    Expr::bin(bop, Expr::Ident(x.clone()), r),
                );
            }
        }
    });
}

/// Whether `block` contains a `continue` that would bind to the loop
/// directly enclosing it (descends into `if`/bare blocks but not into
/// nested loops, whose `continue`s bind to themselves).
fn has_direct_continue(block: &Block) -> bool {
    block.stmts.iter().any(|stmt| match stmt {
        Stmt::Continue => true,
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            has_direct_continue(then_branch)
                || else_branch.as_ref().is_some_and(has_direct_continue)
        }
        Stmt::Block(b) => has_direct_continue(b),
        _ => false,
    })
}

fn convert_loops(unit: &mut TranslationUnit, to_while: bool, rng: &mut Pcg64) {
    for_each_block_mut(unit, &mut |block| {
        for stmt in &mut block.stmts {
            if to_while {
                let Stmt::For {
                    init,
                    cond: Some(_),
                    step,
                    body,
                    ..
                } = stmt
                else {
                    continue;
                };
                // `continue` in a `for` body still runs the step;
                // after the rewrite it would jump past the appended
                // step statement. Such loops must keep their form.
                if has_direct_continue(body) {
                    continue;
                }
                if init.is_none() || step.is_none() || !rng.next_bool(0.7) {
                    continue;
                }
                rewrite::for_to_while(stmt);
            } else {
                // while { ...; i++ }  =>  for (; cond; i++) { ... }
                let Stmt::While { body, .. } = stmt else {
                    continue;
                };
                let is_step = matches!(
                    body.stmts.last(),
                    Some(Stmt::Expr(Expr::Unary {
                        op: UnaryOp::PreInc | UnaryOp::PostInc | UnaryOp::PreDec | UnaryOp::PostDec,
                        ..
                    }))
                );
                if !is_step || !rng.next_bool(0.7) {
                    continue;
                }
                let Stmt::While { cond, mut body } = std::mem::replace(stmt, Stmt::Empty) else {
                    unreachable!();
                };
                let Some(Stmt::Expr(step)) = body.stmts.pop() else {
                    unreachable!();
                };
                *stmt = Stmt::For {
                    init: None,
                    cond: Some(cond),
                    step: Some(step),
                    body,
                };
            }
        }
    });
}

/// Converts between `if (c) x = a; else x = b;` and `x = c ? a : b;`
/// (both directions preserve the `if + ternary` branching total).
fn convert_conditionals(unit: &mut TranslationUnit, to_ternary: bool) {
    for_each_block_mut(unit, &mut |block| {
        for stmt in &mut block.stmts {
            if to_ternary {
                let Stmt::If {
                    cond,
                    then_branch,
                    else_branch: Some(else_branch),
                } = stmt
                else {
                    continue;
                };
                let (
                    Some(Stmt::Expr(Expr::Assign {
                        op: op_a,
                        lhs: lhs_a,
                        rhs: rhs_a,
                    })),
                    Some(Stmt::Expr(Expr::Assign {
                        op: op_b,
                        lhs: lhs_b,
                        rhs: rhs_b,
                    })),
                ) = (
                    (then_branch.stmts.len() == 1).then(|| &then_branch.stmts[0]),
                    (else_branch.stmts.len() == 1).then(|| &else_branch.stmts[0]),
                )
                else {
                    continue;
                };
                if op_a != op_b || lhs_a != lhs_b {
                    continue;
                }
                let ternary = Expr::Ternary {
                    cond: Box::new(wrap_ternary_cond(cond.clone())),
                    then_expr: rhs_a.clone(),
                    else_expr: rhs_b.clone(),
                };
                *stmt = Stmt::Expr(Expr::Assign {
                    op: *op_a,
                    lhs: lhs_a.clone(),
                    rhs: Box::new(ternary),
                });
            } else {
                rewrite::ternary_assign_to_if(stmt);
            }
        }
    });
}

/// A ternary condition binds looser than comparison; parenthesize
/// anything that is not already tight enough.
fn wrap_ternary_cond(cond: Expr) -> Expr {
    match &cond {
        Expr::Assign { .. } | Expr::Ternary { .. } => Expr::Paren(Box::new(cond)),
        _ => cond,
    }
}

/// Merges consecutive single-declarator declarations of the same type
/// (`int a; int b;` → `int a, b;`) or splits multi-declarator ones,
/// per the target's habit.
fn restyle_declarations(unit: &mut TranslationUnit, merge: bool) {
    for_each_block_mut(unit, &mut |block| {
        if merge {
            let mut out: Vec<Stmt> = Vec::with_capacity(block.stmts.len());
            for stmt in block.stmts.drain(..) {
                if let (Stmt::Decl(d), Some(Stmt::Decl(prev))) = (&stmt, out.last_mut()) {
                    if prev.ty == d.ty {
                        prev.declarators.extend(d.declarators.iter().cloned());
                        continue;
                    }
                }
                out.push(stmt);
            }
            block.stmts = out;
        } else {
            rewrite::split_declarations(block);
        }
    });
}

/// Lowers read-only range-`for` loops over a named container into
/// indexed `for` loops (`for (char c : s)` → `for (int i = 0; ...)`),
/// one of the structural rewrites real LLM restyling performs; each
/// qualifying loop is lowered with probability 0.8.
fn lower_foreach(unit: &mut TranslationUnit, rng: &mut Pcg64) {
    let mut taken = declared_names(unit);
    let mut counter = 0usize;
    for_each_block_mut(unit, &mut |block| {
        for stmt in &mut block.stmts {
            rewrite::lower_foreach(stmt, |name| {
                if !rng.next_bool(0.8) {
                    return None;
                }
                // A fresh index name that collides with nothing,
                // including the indices of loops lowered before it.
                let mut idx = "i".to_string();
                while taken.contains(&idx) || idx == name {
                    counter += 1;
                    idx = format!("i{counter}");
                }
                taken.push(idx.clone());
                Some(idx)
            });
        }
    });
}

fn swap_endl(unit: &mut TranslationUnit, want_endl: bool) {
    for_each_expr_mut(unit, &mut |e| {
        if let Expr::Binary {
            op: BinaryOp::Shl,
            rhs,
            ..
        } = e
        {
            match rhs.as_ref() {
                Expr::Ident(name) if name == "endl" && !want_endl => {
                    **rhs = Expr::Str("\n".into());
                }
                Expr::Str(s) if s == "\n" && want_endl => {
                    **rhs = Expr::ident("endl");
                }
                _ => {}
            }
        }
    });
}

fn restyle_comments(unit: &mut TranslationUnit, target: &AuthorStyle, rng: &mut Pcg64) {
    let keep = target.comments.density > 0.2;
    let block_style = target.comments.block;
    // Items.
    unit.items.retain(|item| {
        if matches!(item, Item::Comment(_)) {
            keep && rng.next_bool(0.8)
        } else {
            true
        }
    });
    for item in &mut unit.items {
        if let Item::Comment(c) = item {
            c.block = block_style;
        }
    }
    let mut coin = rng.fork(&["comments"]);
    for_each_block_mut(unit, &mut |b| {
        b.stmts.retain(|s| {
            if matches!(s, Stmt::Comment(_)) {
                keep && coin.next_bool(0.8)
            } else {
                true
            }
        });
        for s in &mut b.stmts {
            if let Stmt::Comment(c) = s {
                c.block = block_style;
            }
        }
    });
    // LLM house behaviour: transformed code usually gains a short
    // explanatory comment at the top of `main`, *regardless* of the
    // target style — ChatGPT comments habitually. This is the one
    // trait the simulator applies across every latent style; it keeps
    // transformed code separable from the human author whose style it
    // imitates (the paper's Table IX `T` column) and detectable across
    // years (Table X combined).
    if rng.next_bool(0.85) {
        let text = *rng
            .choose(&[
                "Process each test case",
                "Read the input and solve the case",
                "Iterate over all test cases",
            ])
            .expect("non-empty");
        if let Some(main) = unit.items.iter_mut().find_map(|i| match i {
            Item::Function(f) if f.name == "main" => Some(f),
            _ => None,
        }) {
            if !matches!(main.body.stmts.first(), Some(Stmt::Comment(_))) {
                main.body.stmts.insert(
                    0,
                    Stmt::Comment(Comment {
                        text: text.into(),
                        block: block_style,
                    }),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// IO idiom conversion
// ---------------------------------------------------------------------------

fn spec_for(ty: Ty) -> &'static str {
    match ty {
        Ty::Int => "%d",
        Ty::Long => "%lld",
        Ty::Double => "%.6lf",
        Ty::Str => "%s",
        Ty::Char => "%c",
    }
}

fn stream_to_stdio(unit: &mut TranslationUnit, env: &TypeEnv) {
    for_each_block_mut(unit, &mut |block| {
        for stmt in &mut block.stmts {
            let Stmt::Expr(e) = stmt else { continue };
            // cin >> a >> b  =>  scanf("%d %d", &a, &b)
            if let Some(ops) = chain_operands(e, BinaryOp::Shr, "cin") {
                if !ops.is_empty() {
                    let tys: Option<Vec<Ty>> = ops.iter().map(|o| env.infer(o)).collect();
                    if let Some(tys) = tys {
                        if tys.iter().all(|t| !matches!(t, Ty::Str)) {
                            let fmt: Vec<&str> = tys.iter().map(|&t| scan_spec_for(t)).collect();
                            let mut args = vec![Expr::Str(fmt.join(" "))];
                            args.extend(ops.into_iter().map(|o| Expr::Unary {
                                op: UnaryOp::AddrOf,
                                expr: Box::new(o),
                            }));
                            *e = Expr::call("scanf", args);
                            continue;
                        }
                    }
                }
            }
            // cout << ... => printf(...)
            if let Some(ops) = chain_operands(e, BinaryOp::Shl, "cout") {
                if ops.is_empty() {
                    continue;
                }
                let mut fmt = String::new();
                let mut args = Vec::new();
                let mut ok = true;
                for op in ops {
                    match &op {
                        Expr::Str(s) => fmt.push_str(&s.replace('%', "%%")),
                        Expr::Ident(name) if name == "endl" => fmt.push('\n'),
                        other => match env.infer(other) {
                            Some(Ty::Str) => {
                                fmt.push_str("%s");
                                args.push(Expr::method(op.clone(), "c_str", vec![]));
                            }
                            Some(t) => {
                                fmt.push_str(spec_for(t));
                                args.push(op.clone());
                            }
                            None => {
                                ok = false;
                                break;
                            }
                        },
                    }
                }
                if ok {
                    let mut call_args = vec![Expr::Str(fmt)];
                    call_args.extend(args);
                    *e = Expr::call("printf", call_args);
                }
            }
        }
    });
}

fn scan_spec_for(ty: Ty) -> &'static str {
    match ty {
        Ty::Int => "%d",
        Ty::Long => "%lld",
        Ty::Double => "%lf",
        Ty::Str => "%s",
        Ty::Char => " %c",
    }
}

fn stdio_to_stream(unit: &mut TranslationUnit, want_endl: bool) {
    for_each_block_mut(unit, &mut |block| {
        for stmt in &mut block.stmts {
            rewrite::stdio_to_stream(stmt, want_endl);
        }
    });
}

// ---------------------------------------------------------------------------
// Helper extraction (the paper's Figure 4a)
// ---------------------------------------------------------------------------

fn is_case_print(stmt: &Stmt) -> bool {
    let Stmt::Expr(e) = stmt else { return false };
    if let Expr::Call { callee, args } = e {
        if let Expr::Ident(name) = callee.unparenthesized() {
            if name == "printf" {
                if let Some(Expr::Str(fmt)) = args.first() {
                    return fmt.starts_with("Case #");
                }
            }
        }
    }
    if let Some(ops) = chain_operands(e, BinaryOp::Shl, "cout") {
        return matches!(ops.first(), Some(Expr::Str(s)) if s == "Case #");
    }
    false
}

/// Pulls the per-case body out of `main`'s case loop into a standalone
/// function named in the target's convention — the transformation shown
/// in the paper's Figure 4a.
fn extract_case_helper(
    unit: &mut TranslationUnit,
    target: &AuthorStyle,
    env: &TypeEnv,
    rng: &mut Pcg64,
) {
    // Only when `main` is the single function (otherwise a helper
    // already exists).
    if unit.functions().count() != 1 {
        return;
    }
    let fname = fresh_helper_name(unit, target.naming, rng);

    // Locate the case loop inside main and split its body.
    let mut extracted: Option<(Vec<Stmt>, Expr, Type)> = None;
    if let Some(Item::Function(main)) = unit
        .items
        .iter_mut()
        .find(|i| matches!(i, Item::Function(f) if f.name == "main"))
    {
        for stmt in &mut main.body.stmts {
            let body = match stmt {
                Stmt::For { body, .. } | Stmt::While { body, .. } => body,
                _ => continue,
            };
            let Some(print_pos) = body.stmts.iter().position(is_case_print) else {
                continue;
            };
            if print_pos == 0 {
                continue; // nothing to extract
            }
            let work: Vec<Stmt> = body.stmts.drain(..print_pos).collect();
            // Pull the result value out of the print statement and
            // substitute the helper call.
            let call = Expr::call(fname.clone(), vec![]);
            let Some(Stmt::Expr(print_expr)) = body.stmts.get_mut(0) else {
                body.stmts.splice(0..0, work);
                return;
            };
            let Some(value) = replace_print_value(print_expr, call) else {
                body.stmts.splice(0..0, work);
                return;
            };
            let ret_ty = match env.infer(&value) {
                Some(Ty::Double) => Type::Double,
                Some(Ty::Long) => Type::LongLong,
                Some(Ty::Str) => Type::Str,
                _ => Type::Int,
            };
            extracted = Some((work, value, ret_ty));
            break;
        }
    }
    let Some((mut work, value, ret_ty)) = extracted else {
        return;
    };
    work.push(Stmt::Return(Some(value)));
    let main_pos = unit
        .items
        .iter()
        .position(|i| matches!(i, Item::Function(f) if f.name == "main"))
        .expect("main exists");
    unit.items.insert(
        main_pos,
        Item::Function(Function {
            ret: ret_ty,
            name: fname,
            params: vec![],
            body: Block::new(work),
        }),
    );
}

fn fresh_helper_name(unit: &TranslationUnit, naming: NamingStyle, rng: &mut Pcg64) -> String {
    let existing = declared_names(unit);
    let mut name = match naming.verbosity {
        Verbosity::Short => "go".to_string(),
        _ => {
            let words = *rng.choose(FN_WORDS).expect("fn pool");
            apply_case(words, naming.case_style)
        }
    };
    while existing.contains(&name) || is_reserved_name(&name) {
        name.push('X');
    }
    name
}

/// In a case-print statement, swaps the printed result value for
/// `replacement`, returning the original value expression.
fn replace_print_value(e: &mut Expr, replacement: Expr) -> Option<Expr> {
    // printf("Case #...", case, value)
    if let Expr::Call { callee, args } = e {
        if matches!(callee.unparenthesized(), Expr::Ident(n) if n == "printf") && args.len() >= 3 {
            let old = args[2].clone();
            args[2] = replacement;
            return Some(old);
        }
        return None;
    }
    // cout << "Case #" << case << ": " << value << nl
    let ops = chain_operands(e, BinaryOp::Shl, "cout")?;
    let sep = ops
        .iter()
        .position(|o| matches!(o, Expr::Str(s) if s == ": "))?;
    let value_idx = sep + 1;
    if value_idx >= ops.len() {
        return None;
    }
    let mut new_ops = ops.clone();
    let old = std::mem::replace(&mut new_ops[value_idx], replacement);
    *e = rebuild_chain("cout", BinaryOp::Shl, new_ops);
    Some(old)
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthattr_gen::challenges::ChallengeId;
    use synthattr_gen::corpus::solution_in_style;
    use synthattr_gen::naming::Case;
    use synthattr_lang::render::{BraceStyle, Indent};

    fn sample_source(seed: u64) -> String {
        let mut rng = Pcg64::new(seed);
        let style = AuthorStyle::sample(&mut rng);
        solution_in_style(ChallengeId::HorseRace, &style, seed, &["src"])
    }

    #[test]
    fn transform_outputs_reparse_for_many_inputs() {
        let pool = YearPool::calibrated(2018, 3);
        let gpt = Transformer::new(&pool);
        for seed in 0..20 {
            let src = sample_source(seed);
            let mut rng = Pcg64::new(1000 + seed);
            let idx = pool.sample_index(&mut rng);
            let out = gpt.transform(&src, idx, &mut rng).unwrap();
            parse(&out).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{out}"));
        }
    }

    #[test]
    fn transform_changes_the_text() {
        let pool = YearPool::calibrated(2018, 3);
        let gpt = Transformer::new(&pool);
        let src = sample_source(1);
        let mut rng = Pcg64::new(5);
        let out = gpt.transform(&src, 0, &mut rng).unwrap();
        assert_ne!(src, out);
    }

    #[test]
    fn transform_is_deterministic() {
        let pool = YearPool::calibrated(2019, 3);
        let gpt = Transformer::new(&pool);
        let src = sample_source(2);
        let a = gpt.transform(&src, 1, &mut Pcg64::new(9)).unwrap();
        let b = gpt.transform(&src, 1, &mut Pcg64::new(9)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn preserves_io_protocol_skeleton() {
        // Whatever the transformation does, the program must still
        // print the GCJ "Case #" banner.
        let pool = YearPool::calibrated(2017, 3);
        let gpt = Transformer::new(&pool);
        for seed in 0..10 {
            let src = sample_source(seed);
            let mut rng = Pcg64::new(30 + seed);
            let idx = pool.sample_index(&mut rng);
            let out = gpt.transform(&src, idx, &mut rng).unwrap();
            assert!(out.contains("Case #"), "seed {seed}:\n{out}");
        }
    }

    #[test]
    fn set_compound_contracts_and_expands() {
        let mut unit = parse("int main() { int x = 0; x = x + 2; return x; }").unwrap();
        set_compound(&mut unit, true);
        let text = render(&unit, &RenderStyle::default());
        assert!(text.contains("x += 2"), "{text}");
        set_compound(&mut unit, false);
        let text = render(&unit, &RenderStyle::default());
        assert!(text.contains("x = x + 2"), "{text}");
        parse(&text).unwrap();
    }

    #[test]
    fn set_compound_parenthesizes_expanded_rhs() {
        let mut unit = parse("int main() { int x = 9; x /= 1 + 2; return x; }").unwrap();
        set_compound(&mut unit, false);
        let text = render(&unit, &RenderStyle::default());
        assert!(text.contains("x = x / (1 + 2)"), "{text}");
    }

    #[test]
    fn set_incdec_flips_statement_positions_only() {
        let mut unit =
            parse("int main() { int i = 0; int y = ++i; for (; i < 3; ++i) { i++; } return y; }")
                .unwrap();
        set_incdec(&mut unit, true);
        let text = render(&unit, &RenderStyle::default());
        // The value-used ++i in the initializer must NOT flip.
        assert!(text.contains("int y = ++i"), "{text}");
        assert!(text.contains("i < 3; i++"), "{text}");
    }

    #[test]
    fn flip_casts_roundtrip() {
        let mut unit =
            parse("int main() { int x = 3; double d = (double)(x + 1) / (double)x; return 0; }")
                .unwrap();
        flip_casts(&mut unit, true);
        let text = render(&unit, &RenderStyle::default());
        assert!(text.contains("static_cast<double>(x + 1)"), "{text}");
        assert!(!text.contains("(double)("), "{text}");
        flip_casts(&mut unit, false);
        let text = render(&unit, &RenderStyle::default());
        assert!(text.contains("(double)(x + 1)"), "{text}");
        parse(&text).unwrap();
    }

    #[test]
    fn stream_to_stdio_converts_reads_and_writes() {
        let src = r#"
#include <iostream>
using namespace std;
int main() {
    int n;
    cin >> n;
    double t = 1.5;
    cout << "Case #" << 1 << ": " << t << endl;
    return 0;
}
"#;
        let mut unit = parse(src).unwrap();
        let env = TypeEnv::of(&unit);
        stream_to_stdio(&mut unit, &env);
        let text = render(&unit, &RenderStyle::default());
        assert!(text.contains("scanf(\"%d\", &n)"), "{text}");
        assert!(
            text.contains("printf(\"Case #%d: %.6lf\\n\", 1, t)"),
            "{text}"
        );
        parse(&text).unwrap();
    }

    #[test]
    fn stream_to_stdio_leaves_string_reads_alone() {
        let src = "#include <iostream>\nusing namespace std;\nint main() { string s; cin >> s; cout << s; return 0; }";
        let mut unit = parse(src).unwrap();
        let env = TypeEnv::of(&unit);
        stream_to_stdio(&mut unit, &env);
        let text = render(&unit, &RenderStyle::default());
        assert!(text.contains("cin >> s"), "{text}");
        // Output of a string CAN convert (via c_str).
        assert!(text.contains("printf(\"%s\", s.c_str())"), "{text}");
    }

    #[test]
    fn stdio_to_stream_converts_back() {
        let src = r#"
#include <cstdio>
int main() {
    int n;
    scanf("%d", &n);
    printf("Case #%d: %d\n", 1, n);
    return 0;
}
"#;
        let mut unit = parse(src).unwrap();
        stdio_to_stream(&mut unit, true);
        let text = render(&unit, &RenderStyle::default());
        assert!(text.contains("cin >> n"), "{text}");
        assert!(
            text.contains("cout << \"Case #\" << 1 << \": \" << n << endl"),
            "{text}"
        );
        parse(&text).unwrap();
    }

    #[test]
    fn io_roundtrip_preserves_protocol() {
        let src = r#"
#include <iostream>
using namespace std;
int main() {
    int a, b;
    cin >> a >> b;
    cout << "Case #" << 1 << ": " << a + b << "\n";
    return 0;
}
"#;
        let mut unit = parse(src).unwrap();
        let env = TypeEnv::of(&unit);
        stream_to_stdio(&mut unit, &env);
        stdio_to_stream(&mut unit, false);
        let text = render(&unit, &RenderStyle::default());
        assert!(text.contains("cin >> a >> b"), "{text}");
        assert!(text.contains("\"Case #\""), "{text}");
        parse(&text).unwrap();
    }

    #[test]
    fn swap_endl_both_directions() {
        let mut unit =
            parse("int main() { cout << 1 << endl; cout << 2 << \"\\n\"; return 0; }").unwrap();
        swap_endl(&mut unit, false);
        let text = render(&unit, &RenderStyle::default());
        assert!(!text.contains("endl"), "{text}");
        swap_endl(&mut unit, true);
        let text = render(&unit, &RenderStyle::default());
        assert_eq!(text.matches("endl").count(), 2, "{text}");
    }

    #[test]
    fn convert_loops_for_to_while_and_back() {
        let mut rng = Pcg64::new(1);
        let mut unit =
            parse("int main() { for (int i = 0; i < 5; i++) { cout << i; } return 0; }").unwrap();
        // Force conversion by retrying until the coin lands (prob 0.7).
        for _ in 0..10 {
            convert_loops(&mut unit, true, &mut rng);
            let text = render(&unit, &RenderStyle::default());
            if text.contains("while") {
                parse(&text).unwrap();
                return;
            }
        }
        panic!("for->while never fired");
    }

    #[test]
    fn extract_case_helper_matches_figure4a() {
        // An inline main in the Figure-3 shape grows a helper function.
        let src = r#"
#include <iostream>
#include <algorithm>
using namespace std;
int main() {
    int nCase;
    cin >> nCase;
    for (int iCase = 1; iCase <= nCase; ++iCase) {
        int d, n;
        double t = 0;
        cin >> d >> n;
        for (int i = 0; i < n; ++i) {
            int x, y;
            cin >> x >> y;
            x = d - x;
            t = max(t, (double)x / (double)y);
        }
        cout << "Case #" << iCase << ": " << (double)d / t << "\n";
    }
    return 0;
}
"#;
        let mut unit = parse(src).unwrap();
        let env = TypeEnv::of(&unit);
        let mut rng = Pcg64::new(2);
        let style = AuthorStyle::sample(&mut rng);
        extract_case_helper(&mut unit, &style, &env, &mut rng);
        assert_eq!(unit.functions().count(), 2, "helper should be extracted");
        let text = render(&unit, &RenderStyle::default());
        let reparsed = parse(&text).unwrap();
        assert_eq!(reparsed.functions().count(), 2);
        // The helper returns double (inferred from the printed value).
        let helper = reparsed
            .functions()
            .find(|f| f.name != "main")
            .expect("helper");
        assert_eq!(helper.ret, Type::Double);
        // Main's loop now only prints.
        assert!(text.contains("Case #"), "{text}");
    }

    #[test]
    fn conditionals_convert_both_ways() {
        let src =
            "int main() { int x = 0; int c = 1; if (c > 0) { x = 1; } else { x = 2; } return x; }";
        let mut unit = parse(src).unwrap();
        convert_conditionals(&mut unit, true);
        let text = render(&unit, &RenderStyle::default());
        assert!(text.contains("x = c > 0 ? 1 : 2"), "{text}");
        assert!(!text.contains("else"), "{text}");
        convert_conditionals(&mut unit, false);
        let text = render(&unit, &RenderStyle::default());
        assert!(text.contains("if (c > 0)"), "{text}");
        assert!(text.contains("else"), "{text}");
        parse(&text).unwrap();
    }

    #[test]
    fn conditionals_require_matching_targets() {
        // Different assignment targets must NOT merge into a ternary.
        let src =
            "int main() { int x = 0, y = 0; if (x < 1) { x = 1; } else { y = 2; } return x + y; }";
        let mut unit = parse(src).unwrap();
        convert_conditionals(&mut unit, true);
        let text = render(&unit, &RenderStyle::default());
        assert!(text.contains("if"), "{text}");
        assert!(!text.contains('?'), "{text}");
    }

    #[test]
    fn declarations_merge_and_split() {
        let src = "int main() { int a = 1; int b = 2; double d = 0.5; return a + b; }";
        let mut unit = parse(src).unwrap();
        restyle_declarations(&mut unit, true);
        let text = render(&unit, &RenderStyle::default());
        assert!(text.contains("int a = 1, b = 2;"), "{text}");
        assert!(text.contains("double d = 0.5;"), "{text}");
        restyle_declarations(&mut unit, false);
        let text = render(&unit, &RenderStyle::default());
        assert!(text.contains("int a = 1;"), "{text}");
        assert!(text.contains("int b = 2;"), "{text}");
        parse(&text).unwrap();
    }

    #[test]
    fn merge_respects_type_boundaries() {
        let src = "int main() { int a; double d; int b; return a; }";
        let mut unit = parse(src).unwrap();
        restyle_declarations(&mut unit, true);
        let text = render(&unit, &RenderStyle::default());
        // a and b are separated by d, so they stay separate.
        assert!(text.contains("int a;"), "{text}");
        assert!(text.contains("int b;"), "{text}");
    }

    #[test]
    fn foreach_lowers_to_indexed_loop() {
        let src = "#include <string>\nusing namespace std;\nint main() { string s; int n = 0; for (char c : s) { if (c == 'a') { n = n + 1; } } return n; }";
        let mut unit = parse(src).unwrap();
        // The conversion fires with probability 0.8 per loop; force it.
        let mut rng = Pcg64::new(1);
        for _ in 0..20 {
            lower_foreach(&mut unit, &mut rng);
            let text = render(&unit, &RenderStyle::default());
            if !text.contains(" : ") {
                assert!(text.contains("(int)s.size()"), "{text}");
                assert!(text.contains("char c = s["), "{text}");
                parse(&text).unwrap();
                return;
            }
        }
        panic!("foreach lowering never fired");
    }

    #[test]
    fn foreach_by_ref_is_left_alone() {
        let src = "#include <vector>\nusing namespace std;\nint main() { vector<int> v; for (auto& x : v) { x = x + 1; } return 0; }";
        let mut unit = parse(src).unwrap();
        let mut rng = Pcg64::new(2);
        for _ in 0..10 {
            lower_foreach(&mut unit, &mut rng);
        }
        let text = render(&unit, &RenderStyle::default());
        assert!(text.contains("auto& x : v"), "{text}");
    }

    #[test]
    fn lowered_index_avoids_collisions() {
        // `i` is taken, so the generated index must be fresh.
        let src = "#include <string>\nusing namespace std;\nint main() { string s; int i = 7; int n = 0; for (char c : s) { n = n + 1; } return n + i; }";
        let mut unit = parse(src).unwrap();
        let mut rng = Pcg64::new(3);
        for _ in 0..20 {
            lower_foreach(&mut unit, &mut rng);
        }
        let text = render(&unit, &RenderStyle::default());
        if !text.contains(" : ") {
            assert!(text.contains("int i1 = 0"), "{text}");
            parse(&text).unwrap();
        }
    }

    #[test]
    fn rename_all_changes_identifiers_consistently() {
        let mut unit = parse(
            "int helper(int aa) { return aa * 2; } int main() { int xx = 3; return helper(xx); }",
        )
        .unwrap();
        let naming = NamingStyle {
            case_style: Case::Snake,
            verbosity: Verbosity::Long,
            flavor: 0,
        };
        let vocab = StyleVocab::for_anchor(4, 2018, 0);
        rename_all(&mut unit, naming, &vocab);
        let text = render(&unit, &RenderStyle::default());
        assert!(!text.contains("aa"), "{text}");
        assert!(!text.contains("xx"), "{text}");
        assert!(text.contains("main"), "{text}");
        parse(&text).unwrap();
    }

    #[test]
    fn detect_render_style_recovers_layout() {
        let tabbed = "int main()\n{\n\tint a = 1;\n\treturn a;\n}\n";
        let d = detect_render_style(tabbed);
        assert_eq!(d.indent, Indent::Tab);
        assert_eq!(d.brace, BraceStyle::NextLine);

        let spaced = "int main() {\n  int a = 1;\n  return a;\n}\n";
        let d = detect_render_style(spaced);
        assert_eq!(d.indent, Indent::Spaces(2));
        assert_eq!(d.brace, BraceStyle::SameLine);
    }

    #[test]
    fn high_fidelity_transform_lands_near_target_layout() {
        let mut pool = YearPool::uniform(2018, 1, 7);
        pool.fidelity = 1.0;
        // Give the single pool style a distinctive layout.
        pool.styles[0].style.render.indent = Indent::Tab;
        pool.styles[0].style.render.brace = BraceStyle::NextLine;
        let gpt = Transformer::new(&pool);
        let src = sample_source(3);
        let out = gpt.transform(&src, 0, &mut Pcg64::new(8)).unwrap();
        let detected = detect_render_style(&out);
        assert_eq!(detected.indent, Indent::Tab, "{out}");
        assert_eq!(detected.brace, BraceStyle::NextLine, "{out}");
    }
}
