//! AST traversal.
//!
//! Each node's children are listed once, here, and each list serves a
//! shared and a mutable form:
//!
//! * [`Expr::for_each_child`]: an expression's direct sub-expressions;
//! * [`Stmt::for_each_expr`]: the expressions a statement holds outside
//!   its child blocks (a `for`'s init included), and
//!   [`Stmt::for_each_block`]: its child blocks;
//! * [`Declaration::for_each_expr`]: array extents and initializers.
//!
//! The walkers are built on those lists: expressions in pre-order
//! ([`for_each_subexpr`], [`for_each_expr_in`], [`for_each_expr_mut`]),
//! statements in pre-order ([`for_each_stmt`]), every block
//! ([`for_each_block_mut`]) and declaration sites in pre-order
//! ([`for_each_decl_site`]). The renamer here, the simulator's
//! rewrites and type environment (`synthattr-gpt`) and the semantic
//! fingerprint (`synthattr-analysis`) walk the tree through them.
//!
//! The [`Visitor`] kind walk is separate: its stream of node kinds and
//! depths is what the syntactic features read.

use crate::ast::*;
use std::collections::HashMap;

/// A read-only visitor receiving every node's [`NodeKind`] and depth.
///
/// Depth 0 is the translation unit itself; each structural level of
/// nesting adds one.
pub trait Visitor {
    /// Called once per node in pre-order.
    fn visit(&mut self, kind: NodeKind, depth: usize);

    /// Called once per item, before its children. Default: no-op.
    fn visit_item(&mut self, _item: &Item) {}

    /// Called once per statement, before its children. Default: no-op.
    fn visit_stmt(&mut self, _stmt: &Stmt) {}

    /// Called once per expression, before its children. Default: no-op.
    fn visit_expr(&mut self, _expr: &Expr) {}
}

/// Feeds one traversal to two visitors, in order. Each visitor sees
/// exactly the node stream it would have seen walking alone, so
/// fusing two independent collectors into one walk is bit-identical
/// to running them back to back — at half the traversal cost.
pub struct Pair<'a, A, B>(pub &'a mut A, pub &'a mut B);

impl<A: Visitor, B: Visitor> Visitor for Pair<'_, A, B> {
    fn visit(&mut self, kind: NodeKind, depth: usize) {
        self.0.visit(kind, depth);
        self.1.visit(kind, depth);
    }

    fn visit_item(&mut self, item: &Item) {
        self.0.visit_item(item);
        self.1.visit_item(item);
    }

    fn visit_stmt(&mut self, stmt: &Stmt) {
        self.0.visit_stmt(stmt);
        self.1.visit_stmt(stmt);
    }

    fn visit_expr(&mut self, expr: &Expr) {
        self.0.visit_expr(expr);
        self.1.visit_expr(expr);
    }
}

/// Walks the unit in pre-order, invoking `v` for every node.
pub fn walk_unit<V: Visitor>(unit: &TranslationUnit, v: &mut V) {
    v.visit(NodeKind::Unit, 0);
    for item in &unit.items {
        walk_item(item, v, 1);
    }
}

/// Walks one item in pre-order at `depth` (items sit at depth 1 in a
/// whole-unit walk). Exposed so per-item collectors can reproduce the
/// exact node stream [`walk_unit`] would produce for this item.
pub fn walk_item<V: Visitor>(item: &Item, v: &mut V, depth: usize) {
    v.visit_item(item);
    match item {
        Item::Include { .. } => v.visit(NodeKind::Include, depth),
        Item::Define { .. } => v.visit(NodeKind::Define, depth),
        Item::UsingNamespace(_) => v.visit(NodeKind::UsingNamespace, depth),
        Item::Typedef { .. } => v.visit(NodeKind::Typedef, depth),
        Item::UsingAlias { .. } => v.visit(NodeKind::UsingAlias, depth),
        Item::Comment(_) => v.visit(NodeKind::CommentNode, depth),
        Item::GlobalVar(decl) => {
            v.visit(NodeKind::GlobalVar, depth);
            walk_declaration(decl, v, depth + 1);
        }
        Item::Function(f) => {
            v.visit(NodeKind::Function, depth);
            for _p in &f.params {
                v.visit(NodeKind::Param, depth + 1);
            }
            walk_block(&f.body, v, depth + 1);
        }
    }
}

fn walk_block<V: Visitor>(block: &Block, v: &mut V, depth: usize) {
    v.visit(NodeKind::Block, depth);
    for stmt in &block.stmts {
        walk_stmt(stmt, v, depth + 1);
    }
}

fn walk_declaration<V: Visitor>(decl: &Declaration, v: &mut V, depth: usize) {
    v.visit(NodeKind::TypeNode, depth);
    for d in &decl.declarators {
        v.visit(NodeKind::Declarator, depth);
        if let Some(extent) = &d.array {
            walk_expr(extent, v, depth + 1);
        }
        match &d.init {
            Some(Initializer::Assign(e)) => walk_expr(e, v, depth + 1),
            Some(Initializer::Ctor(args)) => {
                for a in args {
                    walk_expr(a, v, depth + 1);
                }
            }
            None => {}
        }
    }
}

fn walk_stmt<V: Visitor>(stmt: &Stmt, v: &mut V, depth: usize) {
    v.visit_stmt(stmt);
    match stmt {
        Stmt::Decl(d) => {
            v.visit(NodeKind::DeclStmt, depth);
            walk_declaration(d, v, depth + 1);
        }
        Stmt::Expr(e) => {
            v.visit(NodeKind::ExprStmt, depth);
            walk_expr(e, v, depth + 1);
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            v.visit(NodeKind::IfStmt, depth);
            walk_expr(cond, v, depth + 1);
            walk_block(then_branch, v, depth + 1);
            if let Some(e) = else_branch {
                walk_block(e, v, depth + 1);
            }
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            v.visit(NodeKind::ForStmt, depth);
            if let Some(i) = init {
                walk_stmt(i, v, depth + 1);
            }
            if let Some(c) = cond {
                walk_expr(c, v, depth + 1);
            }
            if let Some(s) = step {
                walk_expr(s, v, depth + 1);
            }
            walk_block(body, v, depth + 1);
        }
        Stmt::ForEach { iterable, body, .. } => {
            v.visit(NodeKind::ForEachStmt, depth);
            walk_expr(iterable, v, depth + 1);
            walk_block(body, v, depth + 1);
        }
        Stmt::While { cond, body } => {
            v.visit(NodeKind::WhileStmt, depth);
            walk_expr(cond, v, depth + 1);
            walk_block(body, v, depth + 1);
        }
        Stmt::DoWhile { body, cond } => {
            v.visit(NodeKind::DoWhileStmt, depth);
            walk_block(body, v, depth + 1);
            walk_expr(cond, v, depth + 1);
        }
        Stmt::Return(e) => {
            v.visit(NodeKind::ReturnStmt, depth);
            if let Some(e) = e {
                walk_expr(e, v, depth + 1);
            }
        }
        Stmt::Break => v.visit(NodeKind::BreakStmt, depth),
        Stmt::Continue => v.visit(NodeKind::ContinueStmt, depth),
        Stmt::Block(b) => walk_block(b, v, depth),
        Stmt::Comment(_) => v.visit(NodeKind::CommentNode, depth),
        Stmt::Empty => v.visit(NodeKind::EmptyStmt, depth),
    }
}

fn walk_expr<V: Visitor>(expr: &Expr, v: &mut V, depth: usize) {
    v.visit_expr(expr);
    match expr {
        Expr::Int(_) => v.visit(NodeKind::IntLit, depth),
        Expr::Float(_) => v.visit(NodeKind::FloatLit, depth),
        Expr::Str(_) => v.visit(NodeKind::StrLit, depth),
        Expr::Char(_) => v.visit(NodeKind::CharLit, depth),
        Expr::Bool(_) => v.visit(NodeKind::BoolLit, depth),
        Expr::Ident(_) => v.visit(NodeKind::Ident, depth),
        Expr::Unary { expr, .. } => {
            v.visit(NodeKind::Unary, depth);
            walk_expr(expr, v, depth + 1);
        }
        Expr::Binary { lhs, rhs, .. } => {
            v.visit(NodeKind::Binary, depth);
            walk_expr(lhs, v, depth + 1);
            walk_expr(rhs, v, depth + 1);
        }
        Expr::Assign { lhs, rhs, .. } => {
            v.visit(NodeKind::Assign, depth);
            walk_expr(lhs, v, depth + 1);
            walk_expr(rhs, v, depth + 1);
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
        } => {
            v.visit(NodeKind::Ternary, depth);
            walk_expr(cond, v, depth + 1);
            walk_expr(then_expr, v, depth + 1);
            walk_expr(else_expr, v, depth + 1);
        }
        Expr::Call { callee, args } => {
            v.visit(NodeKind::Call, depth);
            walk_expr(callee, v, depth + 1);
            for a in args {
                walk_expr(a, v, depth + 1);
            }
        }
        Expr::Member { base, .. } => {
            v.visit(NodeKind::Member, depth);
            walk_expr(base, v, depth + 1);
        }
        Expr::Index { base, index } => {
            v.visit(NodeKind::Index, depth);
            walk_expr(base, v, depth + 1);
            walk_expr(index, v, depth + 1);
        }
        Expr::Cast { expr, .. } => {
            v.visit(NodeKind::Cast, depth);
            walk_expr(expr, v, depth + 1);
        }
        Expr::StaticCast { expr, .. } => {
            v.visit(NodeKind::StaticCastNode, depth);
            walk_expr(expr, v, depth + 1);
        }
        Expr::Paren(inner) => {
            v.visit(NodeKind::Paren, depth);
            walk_expr(inner, v, depth + 1);
        }
        Expr::InitList(elems) => {
            v.visit(NodeKind::InitList, depth);
            for e in elems {
                walk_expr(e, v, depth + 1);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Children lists
// ---------------------------------------------------------------------------

// Each list is one match, expanded twice: over `&Node` for the shared
// form and over `&mut Node` for the mutable one. Match ergonomics give
// the bindings the reference's mutability, so one set of arms serves
// both. The matches are exhaustive: a new variant must be listed here.

/// `$f` on each direct sub-expression of `$expr`, in source order.
macro_rules! expr_children {
    ($expr:expr, $f:ident) => {
        match $expr {
            Expr::Unary { expr, .. }
            | Expr::Cast { expr, .. }
            | Expr::StaticCast { expr, .. }
            | Expr::Paren(expr) => $f(expr),
            Expr::Member { base, .. } => $f(base),
            Expr::Binary { lhs, rhs, .. } | Expr::Assign { lhs, rhs, .. } => {
                $f(lhs);
                $f(rhs);
            }
            Expr::Index { base, index } => {
                $f(base);
                $f(index);
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                $f(cond);
                $f(then_expr);
                $f(else_expr);
            }
            Expr::Call { callee, args } => {
                $f(callee);
                for a in args {
                    $f(a);
                }
            }
            Expr::InitList(elems) => {
                for e in elems {
                    $f(e);
                }
            }
            Expr::Int(_)
            | Expr::Float(_)
            | Expr::Str(_)
            | Expr::Char(_)
            | Expr::Bool(_)
            | Expr::Ident(_) => {}
        }
    };
}

/// `$f` on each array extent and initializer expression of `$decl`.
macro_rules! declaration_exprs {
    ($decl:expr, $f:ident) => {{
        let Declaration { declarators, .. } = $decl;
        for Declarator { array, init, .. } in declarators {
            if let Some(extent) = array {
                $f(extent);
            }
            match init {
                Some(Initializer::Assign(e)) => $f(e),
                Some(Initializer::Ctor(args)) => {
                    for a in args {
                        $f(a);
                    }
                }
                None => {}
            }
        }
    }};
}

/// `$f` on each expression `$stmt` holds outside its child blocks;
/// `$exprs` is the form's own name, for a declaration and a `for` init.
macro_rules! stmt_exprs {
    ($stmt:expr, $f:ident, $exprs:ident) => {
        match $stmt {
            Stmt::Decl(d) => d.$exprs($f),
            Stmt::Expr(e) | Stmt::Return(Some(e)) => $f(e),
            Stmt::If { cond, .. } | Stmt::While { cond, .. } | Stmt::DoWhile { cond, .. } => {
                $f(cond)
            }
            Stmt::ForEach { iterable, .. } => $f(iterable),
            Stmt::For {
                init, cond, step, ..
            } => {
                if let Some(init) = init {
                    init.$exprs($f);
                }
                if let Some(c) = cond {
                    $f(c);
                }
                if let Some(s) = step {
                    $f(s);
                }
            }
            Stmt::Return(None)
            | Stmt::Break
            | Stmt::Continue
            | Stmt::Block(_)
            | Stmt::Comment(_)
            | Stmt::Empty => {}
        }
    };
}

/// `$f` on each child block of `$stmt`, in source order.
macro_rules! stmt_blocks {
    ($stmt:expr, $f:ident) => {
        match $stmt {
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                $f(then_branch);
                if let Some(e) = else_branch {
                    $f(e);
                }
            }
            Stmt::For { body, .. }
            | Stmt::ForEach { body, .. }
            | Stmt::While { body, .. }
            | Stmt::DoWhile { body, .. } => $f(body),
            Stmt::Block(b) => $f(b),
            Stmt::Decl(_)
            | Stmt::Expr(_)
            | Stmt::Return(_)
            | Stmt::Break
            | Stmt::Continue
            | Stmt::Comment(_)
            | Stmt::Empty => {}
        }
    };
}

impl Expr {
    /// Calls `f` on each direct sub-expression, in source order.
    pub fn for_each_child<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        expr_children!(self, f)
    }

    /// [`Expr::for_each_child`], mutably.
    pub fn for_each_child_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        expr_children!(self, f)
    }
}

impl Declaration {
    /// Calls `f` on each declarator's array extent and initializer
    /// expressions, in source order.
    pub fn for_each_expr<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        declaration_exprs!(self, f)
    }

    /// [`Declaration::for_each_expr`], mutably.
    pub fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        declaration_exprs!(self, f)
    }
}

impl Stmt {
    /// Calls `f` on each expression the statement holds outside its
    /// child blocks, in source order. A `for`'s init statement counts
    /// as part of the `for`: its expressions come first.
    pub fn for_each_expr<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        stmt_exprs!(self, f, for_each_expr)
    }

    /// [`Stmt::for_each_expr`], mutably.
    pub fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        stmt_exprs!(self, f, for_each_expr_mut)
    }

    /// Calls `f` on each child block, in source order.
    pub fn for_each_block<'a>(&'a self, f: &mut impl FnMut(&'a Block)) {
        stmt_blocks!(self, f)
    }

    /// [`Stmt::for_each_block`], mutably.
    pub fn for_each_block_mut(&mut self, f: &mut impl FnMut(&mut Block)) {
        stmt_blocks!(self, f)
    }
}

// ---------------------------------------------------------------------------
// Walkers
// ---------------------------------------------------------------------------

/// Calls `f` on `expr` and every expression under it, in pre-order: a
/// node before its children.
pub fn for_each_subexpr<'a>(expr: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(expr);
    expr.for_each_child(&mut |child| for_each_subexpr(child, f));
}

/// [`for_each_subexpr`], mutably. `f` runs before the walk descends,
/// so the children walked are those of the node `f` leaves in place.
pub fn for_each_subexpr_mut(expr: &mut Expr, f: &mut impl FnMut(&mut Expr)) {
    f(expr);
    expr.for_each_child_mut(&mut |child| for_each_subexpr_mut(child, f));
}

/// Calls `f` on every expression in `block`, in pre-order: each
/// statement's own expressions before those of its child blocks.
pub fn for_each_expr_in<'a>(block: &'a Block, f: &mut impl FnMut(&'a Expr)) {
    for stmt in &block.stmts {
        stmt.for_each_expr(&mut |e| for_each_subexpr(e, f));
        stmt.for_each_block(&mut |b| for_each_expr_in(b, f));
    }
}

/// [`for_each_expr_in`], mutably (see [`for_each_subexpr_mut`]).
fn for_each_expr_in_mut(block: &mut Block, f: &mut impl FnMut(&mut Expr)) {
    for stmt in &mut block.stmts {
        stmt.for_each_expr_mut(&mut |e| for_each_subexpr_mut(e, f));
        stmt.for_each_block_mut(&mut |b| for_each_expr_in_mut(b, f));
    }
}

/// Applies `f` to every expression in the unit, in pre-order: file-scope
/// declarations and function bodies in item order, each body as
/// [`for_each_expr_in`] orders it. `f` runs before the walk descends
/// (see [`for_each_subexpr_mut`]).
pub fn for_each_expr_mut(unit: &mut TranslationUnit, f: &mut impl FnMut(&mut Expr)) {
    for item in &mut unit.items {
        match item {
            Item::GlobalVar(d) => d.for_each_expr_mut(&mut |e| for_each_subexpr_mut(e, f)),
            Item::Function(func) => for_each_expr_in_mut(&mut func.body, f),
            _ => {}
        }
    }
}

/// Calls `f` on every statement in `block`, in pre-order: a statement
/// before its `for` init, and both before its child blocks.
pub fn for_each_stmt<'a>(block: &'a Block, f: &mut impl FnMut(&'a Stmt)) {
    for stmt in &block.stmts {
        f(stmt);
        if let Stmt::For {
            init: Some(init), ..
        } = stmt
        {
            f(init);
        }
        stmt.for_each_block(&mut |b| for_each_stmt(b, f));
    }
}

/// Applies `f` to every statement block in the unit (function bodies
/// and all nested blocks), outermost first. Used by structural
/// transformations that rewrite statement lists.
pub fn for_each_block_mut(unit: &mut TranslationUnit, f: &mut impl FnMut(&mut Block)) {
    for item in &mut unit.items {
        if let Item::Function(func) = item {
            blocks_mut(&mut func.body, f);
        }
    }
}

/// `block`, then every block nested in it, outermost first. `f` runs
/// before the walk descends, so the blocks walked are those of the
/// statements `f` leaves in place.
fn blocks_mut(block: &mut Block, f: &mut impl FnMut(&mut Block)) {
    f(block);
    for stmt in &mut block.stmts {
        stmt.for_each_block_mut(&mut |b| blocks_mut(b, f));
    }
}

/// One declaration site, as [`for_each_decl_site`] reports it.
#[derive(Debug, Clone, Copy)]
pub enum DeclSite<'a> {
    /// A function definition, `main` included.
    Function(&'a Function),
    /// A function parameter.
    Param(&'a Param),
    /// A variable and its declared type: a declarator at file scope,
    /// in a block or in a `for` init, or a range-`for` variable.
    Var(&'a str, &'a Type),
    /// A `typedef`, `using` alias or `#define` name.
    Alias(&'a str),
}

impl<'a> DeclSite<'a> {
    /// The declared name.
    pub fn name(self) -> &'a str {
        match self {
            DeclSite::Function(f) => &f.name,
            DeclSite::Param(p) => &p.name,
            DeclSite::Var(name, _) | DeclSite::Alias(name) => name,
        }
    }
}

/// Calls `f` on every declaration site in the unit, in pre-order:
/// items in order, a function before its parameters, and both before
/// the declarations of its body in [`for_each_stmt`] order.
pub fn for_each_decl_site<'a>(unit: &'a TranslationUnit, f: &mut impl FnMut(DeclSite<'a>)) {
    fn declarators<'a>(d: &'a Declaration, f: &mut impl FnMut(DeclSite<'a>)) {
        for dd in &d.declarators {
            f(DeclSite::Var(&dd.name, &d.ty));
        }
    }
    for item in &unit.items {
        match item {
            Item::GlobalVar(d) => declarators(d, f),
            Item::Function(func) => {
                f(DeclSite::Function(func));
                for p in &func.params {
                    f(DeclSite::Param(p));
                }
                for_each_stmt(&func.body, &mut |stmt| match stmt {
                    Stmt::Decl(d) => declarators(d, f),
                    Stmt::ForEach { ty, name, .. } => f(DeclSite::Var(name, ty)),
                    _ => {}
                });
            }
            _ => {
                if let Some(name) = alias_name(item) {
                    f(DeclSite::Alias(name));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Names
// ---------------------------------------------------------------------------

/// Extracts the defined name from a `#define` directive body (the text
/// stored in [`Item::Define`], without the leading `#`). Returns `None`
/// for non-define directives such as `pragma once`.
pub fn define_name(text: &str) -> Option<&str> {
    let mut parts = text.split_whitespace();
    if parts.next()? != "define" {
        return None;
    }
    let name = parts.next()?;
    Some(name.split('(').next().unwrap_or(name))
}

/// The name a `typedef`, `using` alias or `#define` item declares.
fn alias_name(item: &Item) -> Option<&str> {
    match item {
        Item::Typedef { name, .. } | Item::UsingAlias { name, .. } => Some(name),
        Item::Define { text } => define_name(text),
        _ => None,
    }
}

/// Collects every *user-declared* name in the unit: function names,
/// parameters, local and global variables, range-for variables,
/// `typedef`/`using` alias names, and `#define` macro names.
///
/// Library names (`cin`, `max`, member names, …) never appear here.
/// The set serves two callers with different needs: fresh-name
/// generation must avoid *everything* listed here, while renamers must
/// additionally skip the type-alias and macro names ([`rename_idents`]
/// only rewrites declarator sites and identifier expressions, so those
/// names are declaration-only from its point of view).
pub fn declared_names(unit: &TranslationUnit) -> Vec<String> {
    let mut names = Vec::new();
    for_each_decl_site(unit, &mut |site| {
        if !matches!(site, DeclSite::Function(f) if f.name == "main") {
            names.push(site.name().to_string());
        }
    });
    names.sort();
    names.dedup();
    names
}

/// The subset of [`declared_names`] that a renamer must leave alone:
/// `typedef`/`using` alias names and `#define` macro names, whose uses
/// live in type positions or macro expansions that [`rename_idents`]
/// cannot rewrite.
pub fn unrenameable_names(unit: &TranslationUnit) -> Vec<String> {
    let mut names: Vec<String> = unit
        .items
        .iter()
        .filter_map(alias_name)
        .map(str::to_string)
        .collect();
    names.sort();
    names.dedup();
    names
}

/// Applies `mapping` to every declaration site and identifier use in
/// the unit, in one traversal. Member names, include paths, string
/// literals, and any identifier not in the mapping are untouched.
pub fn rename_idents(unit: &mut TranslationUnit, mapping: &HashMap<String, String>) {
    let rename = |name: &mut String| {
        if let Some(new) = mapping.get(name) {
            *name = new.clone();
        }
    };
    let rename_declarators = |d: &mut Declaration| {
        for dd in &mut d.declarators {
            rename(&mut dd.name);
        }
    };
    let mut rename_uses = |root: &mut Expr| {
        for_each_subexpr_mut(root, &mut |e| {
            if let Expr::Ident(name) = e {
                rename(name);
            }
        })
    };
    for item in &mut unit.items {
        match item {
            Item::GlobalVar(d) => {
                rename_declarators(d);
                d.for_each_expr_mut(&mut rename_uses);
            }
            Item::Function(f) => {
                rename(&mut f.name);
                for p in &mut f.params {
                    rename(&mut p.name);
                }
                blocks_mut(&mut f.body, &mut |block| {
                    for stmt in &mut block.stmts {
                        match stmt {
                            Stmt::Decl(d) => rename_declarators(d),
                            Stmt::For {
                                init: Some(init), ..
                            } => {
                                if let Stmt::Decl(d) = init.as_mut() {
                                    rename_declarators(d);
                                }
                            }
                            Stmt::ForEach { name, .. } => rename(name),
                            _ => {}
                        }
                        stmt.for_each_expr_mut(&mut rename_uses);
                    }
                });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use std::collections::{BTreeMap, HashSet};

    const SRC: &str = r#"
#include <iostream>
using namespace std;
int total;
int helper(int a, vector<int>& xs) {
    int acc = a;
    for (auto& x : xs) acc += x;
    return acc;
}
int main() {
    int n;
    cin >> n;
    for (int i = 0; i < n; ++i) total += i;
    cout << helper(total, *&) << endl;
    return 0;
}
"#;

    fn fixture() -> TranslationUnit {
        // The `*&` above would be invalid; use a valid call instead.
        let src = SRC.replace("*&", "xsv");
        let src = src.replace("int main() {", "vector<int> xsv;\nint main() {");
        parse(&src).unwrap()
    }

    struct Counter {
        nodes: usize,
        max_depth: usize,
    }

    impl Visitor for Counter {
        fn visit(&mut self, _kind: NodeKind, depth: usize) {
            self.nodes += 1;
            self.max_depth = self.max_depth.max(depth);
        }
    }

    #[test]
    fn walk_visits_every_node_once() {
        let unit = fixture();
        let mut c = Counter {
            nodes: 0,
            max_depth: 0,
        };
        walk_unit(&unit, &mut c);
        assert!(c.nodes > 30, "expected a real tree, got {} nodes", c.nodes);
        assert!(c.max_depth >= 5, "depth {}", c.max_depth);
    }

    /// Every `Expr` and `Stmt` variant, with an array extent, constructor
    /// initializers, a `for` with a declaration init, a range-`for`, a
    /// `do`/`while`, an `else`, a nested block, an init list and both
    /// cast spellings.
    const EVERY_VARIANT: &str = r#"
#include <iostream>
using namespace std;
int table[8];
int main() {
    // read the input
    int n = 0, grid[4];
    double scale = 1.5;
    char c = 'x';
    bool ok = true;
    vector<int> xs = {1, 2, 3};
    vector<int> ys(n, 0);
    cin >> n;
    xs.push_back(n);
    for (int i = 0; i < n; ++i) {
        if (i % 2 == 0) {
            continue;
        } else {
            xs[i] = (int)scale + static_cast<int>(c);
        }
    }
    for (auto x : xs) {
        n += x > 0 ? x : -x;
    }
    while (n > 100) {
        n = (n + 1) / 2;
        break;
    }
    do {
        n--;
    } while (n > grid[0]);
    {
        ;
    }
    cout << "n: " << ys.size() << endl;
    return ok ? n : 0;
}
"#;

    /// Every expression and statement `walk_unit` reports, by address,
    /// with the kind it reports for it, and its number of blocks.
    #[derive(Default)]
    struct Reported {
        exprs: HashMap<*const Expr, NodeKind>,
        stmts: HashMap<*const Stmt, NodeKind>,
        blocks: usize,
        pending_expr: Option<*const Expr>,
        pending_stmt: Option<*const Stmt>,
    }

    impl Visitor for Reported {
        fn visit(&mut self, kind: NodeKind, _depth: usize) {
            if let Some(e) = self.pending_expr.take() {
                self.exprs.insert(e, kind);
            } else if let Some(s) = self.pending_stmt.take() {
                self.stmts.insert(s, kind);
            }
            if kind == NodeKind::Block {
                self.blocks += 1;
            }
        }

        fn visit_stmt(&mut self, stmt: &Stmt) {
            self.pending_stmt = Some(stmt);
        }

        fn visit_expr(&mut self, expr: &Expr) {
            self.pending_expr = Some(expr);
        }
    }

    /// Counts per kind of the `reached` nodes, as `reported` names them.
    /// Fails on a node reached twice or one `walk_unit` does not report.
    fn tally<T>(
        reported: &HashMap<*const T, NodeKind>,
        reached: &[*const T],
    ) -> BTreeMap<NodeKind, usize> {
        let mut seen = HashSet::new();
        let mut table = BTreeMap::new();
        for node in reached {
            assert!(seen.insert(*node), "a walker reached a node twice");
            let kind = reported
                .get(node)
                .expect("a walker reached a node walk_unit does not report");
            *table.entry(*kind).or_insert(0) += 1;
        }
        table
    }

    /// The shared and mutable expression walkers reach exactly the
    /// expressions `walk_unit` reports, with the same count per kind,
    /// and the statement and block walkers every statement and block
    /// once.
    #[test]
    fn walkers_reach_every_node_walk_unit_reports() {
        let mut unit = parse(EVERY_VARIANT).unwrap();
        let mut reported = Reported::default();
        walk_unit(&unit, &mut reported);
        let (mut exprs, mut stmts) = (Vec::new(), Vec::new());
        for item in &unit.items {
            match item {
                Item::GlobalVar(d) => d.for_each_expr(&mut |root| {
                    for_each_subexpr(root, &mut |e| exprs.push(e as *const Expr))
                }),
                Item::Function(f) => {
                    for_each_expr_in(&f.body, &mut |e| exprs.push(e as *const Expr));
                    for_each_stmt(&f.body, &mut |s| stmts.push(s as *const Stmt));
                }
                _ => {}
            }
        }
        let mut exprs_mut = Vec::new();
        for_each_expr_mut(&mut unit, &mut |e| exprs_mut.push(e as *const Expr));
        let mut blocks = Vec::new();
        for_each_block_mut(&mut unit, &mut |b| blocks.push(b as *const Block));

        let all_exprs: Vec<_> = reported.exprs.keys().copied().collect();
        let expr_table = tally(&reported.exprs, &all_exprs);
        assert_eq!(
            tally(&reported.exprs, &exprs),
            expr_table,
            "shared expression walker"
        );
        assert_eq!(
            tally(&reported.exprs, &exprs_mut),
            expr_table,
            "mutable expression walker"
        );
        let all_stmts: Vec<_> = reported.stmts.keys().copied().collect();
        let stmt_table = tally(&reported.stmts, &all_stmts);
        assert_eq!(
            tally(&reported.stmts, &stmts),
            stmt_table,
            "statement walker"
        );
        blocks.sort();
        blocks.dedup();
        assert_eq!(blocks.len(), reported.blocks, "block walker");
        // The fixture holds every expression kind (`IntLit..=InitList`)
        // and every statement kind (`Block..=EmptyStmt`).
        for kind in NodeKind::all() {
            if (NodeKind::IntLit..=NodeKind::InitList).contains(&kind) {
                assert!(
                    expr_table.contains_key(&kind),
                    "the fixture has no {kind:?}"
                );
            }
            if (NodeKind::Block..=NodeKind::EmptyStmt).contains(&kind) {
                assert!(
                    stmt_table.contains_key(&kind),
                    "the fixture has no {kind:?}"
                );
            }
        }
    }

    #[test]
    fn declared_names_excludes_library_and_main() {
        let unit = fixture();
        let names = declared_names(&unit);
        for expected in ["helper", "a", "xs", "acc", "x", "n", "i", "total", "xsv"] {
            assert!(names.contains(&expected.to_string()), "missing {expected}");
        }
        assert!(!names.contains(&"main".to_string()));
        assert!(!names.contains(&"cin".to_string()));
        assert!(!names.contains(&"cout".to_string()));
        assert!(!names.contains(&"endl".to_string()));
        assert!(!names.contains(&"max".to_string()));
    }

    #[test]
    fn declared_names_covers_params_and_for_init() {
        // Regression guard: parameters and for-init declarations are
        // declaration sites and must be visible to fresh-name
        // generation and renaming alike.
        let unit = parse(
            "int scale(int factor) { return factor * 2; }\nint main() { for (int idx = 0; idx < 3; idx++) { } return 0; }",
        )
        .unwrap();
        let names = declared_names(&unit);
        assert!(names.contains(&"factor".to_string()), "{names:?}");
        assert!(names.contains(&"idx".to_string()), "{names:?}");
    }

    #[test]
    fn declared_names_covers_aliases_and_macros() {
        // Regression guard: typedef/using/define names are declared
        // names too — fresh identifiers must not collide with them.
        let unit = parse(
            "#define MAXN 100\ntypedef long long ll;\nusing vi = vector<int>;\nint main() { return 0; }",
        )
        .unwrap();
        let names = declared_names(&unit);
        for expected in ["MAXN", "ll", "vi"] {
            assert!(names.contains(&expected.to_string()), "{names:?}");
        }
        assert_eq!(unrenameable_names(&unit), vec!["MAXN", "ll", "vi"]);
    }

    #[test]
    fn define_name_parses_directives() {
        assert_eq!(define_name("define MAXN 100"), Some("MAXN"));
        assert_eq!(define_name("define SQ(x) ((x)*(x))"), Some("SQ"));
        assert_eq!(define_name("pragma once"), None);
    }

    #[test]
    fn rename_is_consistent_across_decl_and_use() {
        let mut unit = fixture();
        let mut mapping = HashMap::new();
        mapping.insert("total".to_string(), "grandTotal".to_string());
        mapping.insert("helper".to_string(), "accumulate".to_string());
        rename_idents(&mut unit, &mapping);
        let text = crate::render::render(&unit, &crate::render::RenderStyle::default());
        assert!(!text.contains("total +="));
        assert!(text.contains("grandTotal"));
        assert!(text.contains("accumulate(grandTotal"));
        assert!(!text.contains("helper("));
        // Re-parses cleanly.
        assert!(parse(&text).is_ok(), "{text}");
    }

    #[test]
    fn rename_does_not_touch_members_or_strings() {
        let mut unit = parse(
            "int main() { vector<int> size; size.push_back(1); cout << \"size\"; return (int)size.size(); }",
        )
        .unwrap();
        let mut mapping = HashMap::new();
        mapping.insert("size".to_string(), "values".to_string());
        rename_idents(&mut unit, &mapping);
        let text = crate::render::render(&unit, &crate::render::RenderStyle::default());
        assert!(text.contains("values.push_back"));
        assert!(text.contains("values.size()"), "{text}");
        assert!(
            text.contains("\"size\""),
            "string literal must survive: {text}"
        );
    }

    #[test]
    fn for_each_block_mut_reaches_nested_blocks() {
        let mut unit =
            parse("int main() { if (1) { while (0) { int x = 1; } } for (;;) { } return 0; }")
                .unwrap();
        let mut blocks = 0;
        for_each_block_mut(&mut unit, &mut |_b| blocks += 1);
        // main body, if-then, while body, for body.
        assert_eq!(blocks, 4);
    }
}
