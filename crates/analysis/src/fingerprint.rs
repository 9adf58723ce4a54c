//! Semantic fingerprinting: a normalized AST hash that is invariant
//! under every style rewrite the `synthattr-gpt` simulator performs.
//!
//! `fingerprint(c0) == fingerprint(GPT(c0))` is the checked form of the
//! paper's core assumption — that an LLM "rewrite" changes *style*, not
//! *semantics*. The normalizer maps both programs onto one canonical
//! representative of their shared equivalence class:
//!
//! 1. comments are dropped (pure annotation);
//! 2. parentheses, `static_cast` spelling and `.c_str()` adapters are
//!    erased; `endl` becomes the string `"\n"`;
//! 3. loops take one form: read-only range-`for` loops over a named
//!    container are lowered to indexed loops
//!    ([`rewrite::lower_foreach`]), then every conditioned `for`
//!    becomes its `while` form ([`rewrite::for_to_while`]: init hoisted
//!    into a wrapper block, step appended to the body). This comes
//!    before steps 4 and 5, so a helper called from a `for` header and
//!    a multi-declarator `for` init end up where they do after the
//!    transformer's own for→while conversion;
//! 4. trivially-outlined helpers (zero parameters, a single trailing
//!    `return`, exactly one call site) are inlined back — the inverse
//!    of the paper's Figure 4a helper extraction;
//! 5. multi-declarator statements are split
//!    ([`rewrite::split_declarations`]);
//! 6. stdio IO is rewritten to the stream idiom
//!    ([`rewrite::stdio_to_stream`]: `printf` → `cout` chain, `scanf`
//!    → `cin` chain) and adjacent string operands merge;
//! 7. statement-position `x++`/`x--` become prefix form, compound
//!    assignments are expanded (`x += v` → `x = x + v`), and
//!    ternary-assignments are distributed back into `if`/`else`
//!    ([`rewrite::ternary_assign_to_if`], then `x = x op (c ? a : b)`
//!    here);
//! 8. declared names are α-renamed to position-canonical names.
//!
//! The result is hashed with the AST's structural hash. Two programs
//! with equal fingerprints are therefore identical modulo naming,
//! layout, loop form, sugar, IO idiom and helper outlining.
//!
//! Every step walks the tree through the shared walkers of
//! [`synthattr_lang::visit`]; this module lists no node's children.
//! The rewrites the transformer also performs are the shared ones of
//! [`synthattr_lang::rewrite`], so the two cannot drift apart; what
//! stays here are the normal-form steps only the fingerprint takes.

use std::collections::{HashMap, HashSet};
use synthattr_lang::ast::*;
use synthattr_lang::rewrite::{self, chain_operands, rebuild_chain};
use synthattr_lang::visit::{
    declared_names, for_each_block_mut, for_each_decl_site, for_each_expr_in, for_each_expr_mut,
    for_each_stmt, for_each_subexpr_mut, rename_idents, DeclSite,
};
use synthattr_lang::{parse, ParseError};

/// The normalized-AST hash of `unit`.
pub fn fingerprint(unit: &TranslationUnit) -> u64 {
    normalize(unit).shape_hash()
}

/// Parses `source` and fingerprints it.
///
/// # Errors
///
/// Returns the parse error when `source` is outside the subset.
pub fn fingerprint_source(source: &str) -> Result<u64, ParseError> {
    Ok(fingerprint(&parse(source)?))
}

/// Produces the canonical representative of `unit`'s style-equivalence
/// class. Exposed (rather than kept private to [`fingerprint`]) so
/// tests and debugging tools can render the normal form.
pub fn normalize(unit: &TranslationUnit) -> TranslationUnit {
    let mut u = unit.clone();
    strip_comments(&mut u);
    scrub_exprs(&mut u);
    normalize_loops(&mut u);
    inline_trivial_helpers(&mut u);
    for_each_block_mut(&mut u, &mut rewrite::split_declarations);
    normalize_io(&mut u);
    normalize_stmts(&mut u);
    canonicalize_names(&mut u);
    u
}

// ---------------------------------------------------------------------------
// 1. Comments
// ---------------------------------------------------------------------------

fn strip_comments(u: &mut TranslationUnit) {
    // Includes and `using namespace` are environment preamble: they
    // gate which names a program may reference (a lint concern, see
    // `resolve`) but contribute nothing to what it computes, and
    // equivalent programs legitimately differ in them (`<cstdio>` vs
    // `<iostream>` for the two IO idioms).
    u.items.retain(|i| {
        !matches!(
            i,
            Item::Comment(_) | Item::Include { .. } | Item::UsingNamespace(_)
        )
    });
    for_each_block_mut(u, &mut |b| {
        b.stmts.retain(|s| !matches!(s, Stmt::Comment(_)));
    });
}

// ---------------------------------------------------------------------------
// 2. Expression-level scrubbing: parens, cast spelling, c_str, endl
// ---------------------------------------------------------------------------

fn scrub_exprs(u: &mut TranslationUnit) {
    for_each_expr_mut(u, &mut |e| loop {
        match e {
            Expr::Paren(inner) => {
                *e = std::mem::replace(inner, Expr::Int(0));
            }
            Expr::StaticCast { ty, expr } => {
                *e = Expr::Cast {
                    ty: ty.clone(),
                    expr: std::mem::replace(expr, Box::new(Expr::Int(0))),
                };
            }
            Expr::Call { callee, args } if args.is_empty() => {
                if let Expr::Member { base, member, .. } = callee.as_mut() {
                    if member == "c_str" {
                        *e = std::mem::replace(base, Expr::Int(0));
                        continue;
                    }
                }
                break;
            }
            Expr::Ident(name) if name == "endl" => {
                *e = Expr::Str("\n".into());
            }
            _ => break,
        }
    });
}

// ---------------------------------------------------------------------------
// 3. Loop form: range-for lowering, then for -> while
// ---------------------------------------------------------------------------

/// Lowers every read-only range-`for` over a named container to the
/// indexed `for` the transformer produces, then turns every conditioned
/// `for`, lowered ones included, into its `while` form.
fn normalize_loops(u: &mut TranslationUnit) {
    let taken: HashSet<String> = declared_names(u).into_iter().collect();
    let mut counter = 0usize;
    // The walk rewrites a block's statements before it descends into
    // the blocks they leave in place, so loops nested in a rewritten
    // body are rewritten too.
    for_each_block_mut(u, &mut |block| {
        for stmt in &mut block.stmts {
            rewrite::lower_foreach(stmt, |name| {
                let mut idx = format!("__fe{counter}");
                while taken.contains(&idx) || idx == name {
                    counter += 1;
                    idx = format!("__fe{counter}");
                }
                counter += 1;
                Some(idx)
            });
            rewrite::for_to_while(stmt);
        }
    });
}

// ---------------------------------------------------------------------------
// 4. Helper inlining (inverse of Figure 4a extraction)
// ---------------------------------------------------------------------------

fn count_returns(b: &Block) -> usize {
    let mut n = 0;
    for_each_stmt(b, &mut |s| {
        if matches!(s, Stmt::Return(_)) {
            n += 1;
        }
    });
    n
}

fn count_calls_in_block(b: &Block, name: &str) -> usize {
    let mut n = 0;
    for_each_expr_in(b, &mut |e| {
        if let Expr::Call { callee, .. } = e {
            if matches!(callee.unparenthesized(), Expr::Ident(f) if f == name) {
                n += 1;
            }
        }
    });
    n
}

fn inline_trivial_helpers(u: &mut TranslationUnit) {
    loop {
        let Some((name, body)) = find_inline_candidate(u) else {
            return;
        };
        let n = body.stmts.len();
        let work: Vec<Stmt> = body.stmts[..n - 1].to_vec();
        let Some(Stmt::Return(Some(value))) = body.stmts.last() else {
            unreachable!("candidate shape checked");
        };
        let value = value.clone();
        if !splice_call_site(u, &name, work, value) {
            return;
        }
        u.items
            .retain(|i| !matches!(i, Item::Function(f) if f.name == name));
    }
}

/// A helper is inlineable when it could have been produced by the
/// transformer's case-helper extraction: no parameters, not `main`, a
/// single `return` as its final statement, no self-call, and exactly
/// one zero-argument call site in the rest of the unit.
fn find_inline_candidate(u: &TranslationUnit) -> Option<(String, Block)> {
    for f in u.functions() {
        if f.name == "main" || !f.params.is_empty() {
            continue;
        }
        if !matches!(f.body.stmts.last(), Some(Stmt::Return(Some(_)))) {
            continue;
        }
        if count_returns(&f.body) != 1 || count_calls_in_block(&f.body, &f.name) != 0 {
            continue;
        }
        let calls: usize = u
            .functions()
            .filter(|g| g.name != f.name)
            .map(|g| count_calls_in_block(&g.body, &f.name))
            .sum();
        if calls == 1 {
            return Some((f.name.clone(), f.body.clone()));
        }
    }
    None
}

/// Finds the unique statement containing `name()`, splices `work`
/// before it, and replaces the call with `value`. The helper's own
/// body holds no call to `name` (see [`find_inline_candidate`]), so
/// every function body is searched.
fn splice_call_site(u: &mut TranslationUnit, name: &str, work: Vec<Stmt>, value: Expr) -> bool {
    let mut done = false;
    for_each_block_mut(u, &mut |b| {
        if done {
            return;
        }
        let Some(i) = b
            .stmts
            .iter_mut()
            .position(|s| replace_call(s, name, &value))
        else {
            return;
        };
        b.stmts.splice(i..i, work.iter().cloned());
        done = true;
    });
    done
}

/// Replaces the first zero-argument call to `name` among `stmt`'s own
/// expressions with `value`; returns whether it found one.
fn replace_call(stmt: &mut Stmt, name: &str, value: &Expr) -> bool {
    let mut replaced = false;
    stmt.for_each_expr_mut(&mut |root| {
        for_each_subexpr_mut(root, &mut |e| {
            if replaced {
                return;
            }
            if let Expr::Call { callee, args } = e {
                if args.is_empty()
                    && matches!(callee.unparenthesized(), Expr::Ident(f) if f == name)
                {
                    *e = value.clone();
                    replaced = true;
                }
            }
        })
    });
    replaced
}

// ---------------------------------------------------------------------------
// 6. IO idiom: stdio -> stream, merged string operands
// ---------------------------------------------------------------------------

fn normalize_io(u: &mut TranslationUnit) {
    for_each_block_mut(u, &mut |block| {
        for stmt in &mut block.stmts {
            // `endl` is already the string "\n" (step 2), so the
            // trailing newline stays a string here too.
            rewrite::stdio_to_stream(stmt, false);
            if let Stmt::Expr(e) = stmt {
                merge_cout_strings(e);
            }
        }
    });
}

/// `cout << "a" << "b"` and `cout << "ab"` are the same output; merge
/// adjacent string operands so the printf round-trip (which splits
/// format text around conversions) cannot distinguish them.
fn merge_cout_strings(e: &mut Expr) {
    let Some(ops) = chain_operands(e, BinaryOp::Shl, "cout") else {
        return;
    };
    if ops.len() < 2 {
        return;
    }
    let mut merged: Vec<Expr> = Vec::with_capacity(ops.len());
    for op in ops {
        if let (Expr::Str(next), Some(Expr::Str(prev))) = (&op, merged.last_mut()) {
            prev.push_str(next);
            continue;
        }
        merged.push(op);
    }
    *e = rebuild_chain("cout", BinaryOp::Shl, merged);
}

// ---------------------------------------------------------------------------
// 7. Statement normal forms: inc/dec, compound sugar, ternary-assignment
//    distribution
// ---------------------------------------------------------------------------

fn normalize_stmts(u: &mut TranslationUnit) {
    // The walk rewrites a block's statements before it descends into
    // the child blocks they leave in place, so the branches of a
    // distributed ternary are normalized too.
    for_each_block_mut(u, &mut |b| b.stmts.iter_mut().for_each(norm_stmt));
}

fn norm_stmt(stmt: &mut Stmt) {
    match stmt {
        Stmt::Expr(e) => {
            norm_value_dropped_expr(e);
            // Ternary-assignment -> if/else: the inverse of the
            // transformer's conditional conversion, then the same for
            // the compound-expanded form `x = x op (c ? a : b)`.
            rewrite::ternary_assign_to_if(stmt);
            distribute_ternary_operand(stmt);
        }
        // Only `for`s without a condition are left (step 3); the step
        // is a value-dropped position too.
        Stmt::For { step: Some(s), .. } => norm_value_dropped_expr(s),
        _ => {}
    }
}

/// Rewrites an expression whose value is dropped (statement or for-step
/// position): postfix inc/dec becomes prefix, compound assignment is
/// expanded.
fn norm_value_dropped_expr(e: &mut Expr) {
    match e {
        Expr::Unary { op, .. } => {
            *op = match *op {
                UnaryOp::PostInc => UnaryOp::PreInc,
                UnaryOp::PostDec => UnaryOp::PreDec,
                other => other,
            };
        }
        Expr::Assign { op, lhs, rhs } => {
            let bop = match op {
                AssignOp::Add => BinaryOp::Add,
                AssignOp::Sub => BinaryOp::Sub,
                AssignOp::Mul => BinaryOp::Mul,
                AssignOp::Div => BinaryOp::Div,
                AssignOp::Mod => BinaryOp::Mod,
                AssignOp::Assign => return,
            };
            let target = lhs.clone();
            let value = std::mem::replace(rhs, Box::new(Expr::Int(0)));
            *e = Expr::Assign {
                op: AssignOp::Assign,
                lhs: target.clone(),
                rhs: Box::new(Expr::Binary {
                    op: bop,
                    lhs: target,
                    rhs: value,
                }),
            };
        }
        _ => {}
    }
}

/// `x = x op (c ? a : b)` -> `if (c) x = x op a; else x = x op b;`,
/// the shape compound expansion makes of `x op= c ? a : b`.
fn distribute_ternary_operand(stmt: &mut Stmt) {
    let Stmt::Expr(Expr::Assign {
        op: AssignOp::Assign,
        lhs,
        rhs,
    }) = stmt
    else {
        return;
    };
    let Expr::Binary {
        op,
        lhs: base,
        rhs: operand,
    } = rhs.as_ref()
    else {
        return;
    };
    let Expr::Ternary {
        cond,
        then_expr,
        else_expr,
    } = operand.as_ref()
    else {
        return;
    };
    if base != lhs {
        return;
    }
    let branch = |value: &Expr| {
        Block::new(vec![Stmt::Expr(Expr::assign(
            AssignOp::Assign,
            (**lhs).clone(),
            Expr::bin(*op, (**base).clone(), value.clone()),
        ))])
    };
    *stmt = Stmt::If {
        cond: (**cond).clone(),
        then_branch: branch(then_expr),
        else_branch: Some(branch(else_expr)),
    };
}

// ---------------------------------------------------------------------------
// 8. α-renaming to position-canonical names
// ---------------------------------------------------------------------------

/// Renames every user-declared name to `__v{N}` where `N` is the order
/// of the name's first declaration site in pre-order
/// ([`for_each_decl_site`]). Because the transformer renames via a
/// single name-level bijection, two α-equivalent programs collect the
/// same name *positions* and land on identical canonical trees.
/// (`main`, typedef/alias names and library names are left untouched —
/// the transformer never renames them.)
fn canonicalize_names(u: &mut TranslationUnit) {
    let mut mapping: HashMap<String, String> = HashMap::new();
    for_each_decl_site(u, &mut |site| {
        if matches!(site, DeclSite::Alias(_))
            || matches!(site, DeclSite::Function(f) if f.name == "main")
        {
            return;
        }
        let next = mapping.len();
        mapping
            .entry(site.name().to_string())
            .or_insert_with(|| format!("__v{next}"));
    });
    rename_idents(u, &mapping);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(src: &str) -> u64 {
        fingerprint_source(src).expect("test source parses")
    }

    #[test]
    fn fingerprint_ignores_layout_and_names() {
        let a = fp("int main() { int total = 0; total += 2; return total; }");
        let b = fp("int main()\n{\n\tint s=0;\n\ts=s+2;\n\treturn s;\n}");
        assert_eq!(a, b);
    }

    #[test]
    fn fingerprint_quotients_loop_form() {
        let a = fp("int main() { for (int i = 0; i < 9; i++) { } return 0; }");
        let b = fp("int main() { { int i = 0; while (i < 9) { ++i; } } return 0; }");
        assert_eq!(a, b);
        // A multi-declarator init is hoisted whole and then split, as
        // the transformer's for→while conversion and its declaration
        // splitting leave it.
        let c = fp(
            "int main() { int n = 5, s = 0; for (int i = 0, j = n; i < j; i++) { s += j - i; } return s; }",
        );
        let d = fp(
            "int main() { int n = 5; int s = 0; { int i = 0; int j = n; while (i < j) { s += j - i; i++; } } return s; }",
        );
        let e = fp(
            "int main() { int n = 5, s = 0; { int i = 0, j = n; while (i < j) { s += j - i; i++; } } return s; }",
        );
        assert_eq!(c, d);
        assert_eq!(c, e);
    }

    #[test]
    fn fingerprint_quotients_ternary_and_compound() {
        let a = fp("int main() { int x = 1; if (x > 0) x = 5; else x = 7; return x; }");
        let b = fp("int main() { int y = 1; y = y > 0 ? 5 : 7; return y; }");
        assert_eq!(a, b);
        let c = fp("int main() { int x = 1; if (x > 0) x += 5; else x += 7; return x; }");
        let d = fp("int main() { int y = 1; y += y > 0 ? 5 : 7; return y; }");
        assert_eq!(c, d);
    }

    #[test]
    fn fingerprint_quotients_io_idiom() {
        let a = fp(
            "#include <iostream>\nusing namespace std;\nint main() { int n; cin >> n; cout << \"n: \" << n << endl; return 0; }",
        );
        let b = fp(
            "#include <iostream>\n#include <cstdio>\nusing namespace std;\nint main() { int v; scanf(\"%d\", &v); printf(\"n: %d\\n\", v); return 0; }",
        );
        assert_eq!(a, b);
    }

    #[test]
    fn fingerprint_quotients_helper_outlining() {
        let flat = fp(
            "#include <iostream>\nusing namespace std;\nint main() { int t; cin >> t; for (int i = 1; i <= t; i++) { int n; cin >> n; int r = n * 2; cout << \"Case #\" << i << \": \" << r << \"\\n\"; } return 0; }",
        );
        let outlined = fp(
            "#include <iostream>\nusing namespace std;\nint solve() { int n; cin >> n; int r = n * 2; return r; }\nint main() { int t; cin >> t; for (int i = 1; i <= t; i++) { cout << \"Case #\" << i << \": \" << solve() << \"\\n\"; } return 0; }",
        );
        assert_eq!(flat, outlined);
        // A helper called once from a `for` header inlines to the same
        // place whether the loop is a `for` or its `while` form.
        let helper = "#include <iostream>\nusing namespace std;\nint solve() { int n; cin >> n; return n; }\n";
        for (for_form, while_form) in [
            (
                "for (int r = solve(); r > 0; r--) { s += r; }",
                "{ int r = solve(); while (r > 0) { s += r; r--; } }",
            ),
            (
                "for (int i = 0; i < solve(); i++) { s += i; }",
                "{ int i = 0; while (i < solve()) { s += i; i++; } }",
            ),
            (
                "for (int i = 0; i < 9; i += solve()) { s += i; }",
                "{ int i = 0; while (i < 9) { s += i; i += solve(); } }",
            ),
        ] {
            let program = |lp: &str| format!("{helper}int main() {{ int s = 0; {lp} return s; }}");
            assert_eq!(
                fp(&program(for_form)),
                fp(&program(while_form)),
                "{for_form}"
            );
        }
    }

    #[test]
    fn fingerprint_distinguishes_semantics() {
        let a = fp("int main() { return 0; }");
        let b = fp("int main() { return 1; }");
        assert_ne!(a, b);
        let c = fp("int main() { int x = 1; x = x + 2; return x; }");
        let d = fp("int main() { int x = 1; x = x - 2; return x; }");
        assert_ne!(c, d);
    }

    #[test]
    fn fingerprint_quotients_foreach_lowering() {
        let a = fp(
            "#include <vector>\nusing namespace std;\nint main() { vector<int> v; int s = 0; for (int x : v) { s += x; } return s; }",
        );
        let b = fp(
            "#include <vector>\nusing namespace std;\nint main() { vector<int> v; int s = 0; for (int k = 0; k < (int)v.size(); k++) { int x = v[k]; s += x; } return s; }",
        );
        assert_eq!(a, b);
    }

    #[test]
    fn fingerprint_quotients_casts_parens_comments() {
        let a = fp("int main() { double d = 1.5; int x = (int)d; /* note */ return x; }");
        let b = fp("int main() { double d = 1.5; int x = static_cast<int>(d); return (x); }");
        assert_eq!(a, b);
    }

    #[test]
    fn normalize_is_idempotent() {
        let unit = synthattr_lang::parse(
            "#include <iostream>\nusing namespace std;\nint main() { int t; cin >> t; for (int i = 0; i < t; i++) { cout << i << endl; } return 0; }",
        )
        .unwrap();
        let once = normalize(&unit);
        let twice = normalize(&once);
        assert_eq!(once.shape_hash(), twice.shape_hash());
    }
}
