//! The AST rewrites that both the style simulator (`synthattr-gpt`)
//! and the semantic fingerprint (`synthattr-analysis`) perform, each
//! defined once, so the fingerprint's normal form lands where the
//! simulator's output does by construction:
//!
//! * [`chain_operands`] and [`rebuild_chain`]: a `cin >>` or `cout <<`
//!   chain taken apart and put back together;
//! * [`stdio_to_stream`]: `scanf`/`printf` → stream chain, through
//!   one `printf` format grammar, with a trailing `\n` optionally
//!   split into `endl`;
//! * [`split_declarations`]: `int a, b;` → `int a; int b;`;
//! * [`lower_foreach`]: a read-only range-`for` over a named container
//!   → an indexed `for`, the caller naming the index;
//! * [`for_to_while`]: a conditioned `for` →
//!   `{ init; while (cond) { body; step; } }`;
//! * [`ternary_assign_to_if`]: `x op= c ? a : b;` → `if`/`else`.
//!
//! Each rewrite acts on one statement, or on one block's statement
//! list for the splitter; callers pick the statements through the
//! walkers of [`crate::visit`] and keep their own gates.

use crate::ast::*;

/// The operands of a left-nested `op` chain rooted at the identifier
/// `root` (`cout << a << b` → `[a, b]`), in source order; `None` when
/// `e` is not such a chain.
pub fn chain_operands(e: &Expr, op: BinaryOp, root: &str) -> Option<Vec<Expr>> {
    match e {
        Expr::Binary {
            op: actual,
            lhs,
            rhs,
        } if *actual == op => {
            let mut left = chain_operands(lhs, op, root)?;
            left.push((**rhs).clone());
            Some(left)
        }
        Expr::Ident(name) if name == root => Some(Vec::new()),
        _ => None,
    }
}

/// The inverse of [`chain_operands`]: `root op o1 op o2 ...`.
pub fn rebuild_chain(root: &str, op: BinaryOp, operands: Vec<Expr>) -> Expr {
    operands
        .into_iter()
        .fold(Expr::ident(root), |chain, operand| {
            Expr::bin(op, chain, operand)
        })
}

/// Rewrites a statement-position `scanf` or `printf` call into the
/// equivalent stream chain: `scanf("%d %d", &a, &b)` →
/// `cin >> a >> b`, and `printf("n: %d\n", n)` →
/// `cout << "n: " << n << "\n"`, or `... << n << endl` when
/// `want_endl`. The format grammar: text runs become string literals
/// and `%%` a literal percent; a conversion is optional flags, width
/// and precision, then `l` length modifiers and one of `d f s c u`, and
/// becomes its argument, with `x.c_str()` taken back to `x`. A `printf`
/// with any other conversion, or with more conversions than arguments,
/// is left as it is, and so is every other statement.
pub fn stdio_to_stream(stmt: &mut Stmt, want_endl: bool) {
    let Stmt::Expr(Expr::Call { callee, args }) = stmt else {
        return;
    };
    let Expr::Ident(name) = callee.unparenthesized() else {
        return;
    };
    let chain = match name.as_str() {
        "scanf" if args.len() >= 2 => {
            let operands = args[1..]
                .iter()
                .map(|a| match a {
                    Expr::Unary {
                        op: UnaryOp::AddrOf,
                        expr,
                    } => (**expr).clone(),
                    other => other.clone(),
                })
                .collect();
            rebuild_chain("cin", BinaryOp::Shr, operands)
        }
        "printf" => {
            let Some(Expr::Str(fmt)) = args.first() else {
                return;
            };
            let Some(operands) = printf_operands(fmt, &args[1..], want_endl) else {
                return;
            };
            rebuild_chain("cout", BinaryOp::Shl, operands)
        }
        _ => return,
    };
    *stmt = Stmt::Expr(chain);
}

/// Splits a `printf` format into stream operands, taking one of `args`
/// per conversion, by the grammar [`stdio_to_stream`] gives. When
/// `want_endl`, a trailing `\n` of the format becomes `endl`. `None`
/// for a format the grammar does not read.
fn printf_operands(fmt: &str, args: &[Expr], want_endl: bool) -> Option<Vec<Expr>> {
    let mut operands = Vec::new();
    let mut text = String::new();
    let mut args = args.iter();
    let chars: Vec<char> = fmt.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if chars[i] != '%' {
            text.push(chars[i]);
            i += 1;
            continue;
        }
        if chars.get(i + 1) == Some(&'%') {
            text.push('%');
            i += 2;
            continue;
        }
        let mut j = i + 1;
        while j < chars.len() && !chars[j].is_ascii_alphabetic() {
            j += 1;
        }
        while j < chars.len() && chars[j] == 'l' {
            j += 1;
        }
        if !matches!(chars.get(j), Some('d' | 'f' | 's' | 'c' | 'u')) {
            return None;
        }
        if !text.is_empty() {
            operands.push(Expr::Str(std::mem::take(&mut text)));
        }
        let arg = args.next()?;
        operands.push(match arg {
            Expr::Call { callee, args } if args.is_empty() => match callee.as_ref() {
                Expr::Member { base, member, .. } if member == "c_str" => (**base).clone(),
                _ => arg.clone(),
            },
            _ => arg.clone(),
        });
        i = j + 1;
    }
    if want_endl && text.ends_with('\n') {
        text.pop();
        if !text.is_empty() {
            operands.push(Expr::Str(text));
        }
        operands.push(Expr::ident("endl"));
    } else if !text.is_empty() {
        operands.push(Expr::Str(text));
    }
    Some(operands)
}

/// Splits each multi-declarator declaration in `block` into one
/// declaration per declarator, in order (`int a = 1, b;` →
/// `int a = 1; int b;`).
pub fn split_declarations(block: &mut Block) {
    let multi = |s: &Stmt| matches!(s, Stmt::Decl(d) if d.declarators.len() > 1);
    if !block.stmts.iter().any(multi) {
        return;
    }
    let mut out = Vec::with_capacity(block.stmts.len());
    for stmt in block.stmts.drain(..) {
        match stmt {
            Stmt::Decl(Declaration { ty, declarators }) if declarators.len() > 1 => {
                out.extend(declarators.into_iter().map(|dd| {
                    Stmt::Decl(Declaration {
                        ty: ty.clone(),
                        declarators: vec![dd],
                    })
                }));
            }
            other => out.push(other),
        }
    }
    block.stmts = out;
}

/// Lowers a read-only range-`for` over a named container to an indexed
/// `for`: `for (T x : c) body` →
/// `for (int i = 0; i < (int)c.size(); i++) { T x = c[i]; body }`, an
/// `auto` element declared `int`. By-reference loops keep their form
/// (the loop variable would lose its aliasing), and so does every other
/// statement. `index` is asked only about a loop that qualifies: it
/// gets the loop variable's name and returns the counter's, or `None`
/// to leave the loop as it is.
pub fn lower_foreach(stmt: &mut Stmt, index: impl FnOnce(&str) -> Option<String>) {
    let Stmt::ForEach {
        by_ref: false,
        name,
        iterable: Expr::Ident(_),
        ..
    } = stmt
    else {
        return;
    };
    let Some(idx) = index(name) else {
        return;
    };
    let Stmt::ForEach {
        ty,
        name,
        iterable: Expr::Ident(container),
        body,
        ..
    } = std::mem::replace(stmt, Stmt::Empty)
    else {
        unreachable!("matched above");
    };
    let elem_ty = match ty {
        Type::Auto => Type::Int,
        other => other,
    };
    let mut inner = vec![Stmt::Decl(Declaration {
        ty: elem_ty,
        declarators: vec![Declarator::init(
            name,
            Expr::index(Expr::ident(container.clone()), Expr::ident(idx.clone())),
        )],
    })];
    inner.extend(body.stmts);
    let bound = Expr::Cast {
        ty: Type::Int,
        expr: Box::new(Expr::method(Expr::ident(container), "size", vec![])),
    };
    *stmt = Stmt::For {
        init: Some(Box::new(Stmt::Decl(Declaration {
            ty: Type::Int,
            declarators: vec![Declarator::init(idx.clone(), Expr::Int(0))],
        }))),
        cond: Some(Expr::bin(BinaryOp::Lt, Expr::ident(idx.clone()), bound)),
        step: Some(Expr::Unary {
            op: UnaryOp::PostInc,
            expr: Box::new(Expr::ident(idx)),
        }),
        body: Block::new(inner),
    };
}

/// Rewrites a conditioned `for (init; cond; step) body` to
/// `{ init; while (cond) { body; step; } }`. The wrapping block keeps
/// the init's declarations scoped to the loop, so sibling loops that
/// reuse a name stay valid; without an init the `while` stands alone,
/// and without a step nothing is appended. A `continue` in the body
/// would skip the appended step, so a caller that must keep semantics
/// checks for one first. Every other statement, a `for` without a
/// condition included, is left as it is.
pub fn for_to_while(stmt: &mut Stmt) {
    if !matches!(stmt, Stmt::For { cond: Some(_), .. }) {
        return;
    }
    let Stmt::For {
        init,
        cond: Some(cond),
        step,
        body,
    } = std::mem::replace(stmt, Stmt::Empty)
    else {
        unreachable!("matched above");
    };
    let mut inner = body.stmts;
    inner.extend(step.map(Stmt::Expr));
    let looped = Stmt::While {
        cond,
        body: Block::new(inner),
    };
    *stmt = match init {
        Some(init) => Stmt::Block(Block::new(vec![*init, looped])),
        None => looped,
    };
}

/// Rewrites `x op= c ? a : b;`, for any assignment operator, to
/// `if (c) x op= a; else x op= b;`. Every other statement is left as
/// it is.
pub fn ternary_assign_to_if(stmt: &mut Stmt) {
    let Stmt::Expr(Expr::Assign { op, lhs, rhs }) = stmt else {
        return;
    };
    let Expr::Ternary {
        cond,
        then_expr,
        else_expr,
    } = rhs.as_ref()
    else {
        return;
    };
    let branch = |value: &Expr| {
        Block::new(vec![Stmt::Expr(Expr::Assign {
            op: *op,
            lhs: lhs.clone(),
            rhs: Box::new(value.clone()),
        })])
    };
    *stmt = Stmt::If {
        cond: cond.unparenthesized().clone(),
        then_branch: branch(then_expr),
        else_branch: Some(branch(else_expr)),
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    /// The first statement of `main` in `int main() { <stmt> }`.
    fn stmt(src: &str) -> Stmt {
        let unit = parse(&format!("int main() {{ {src} }}")).expect("test statement parses");
        let main = unit.function("main").expect("main");
        main.body.stmts[0].clone()
    }

    #[test]
    fn stdio_grammar_table() {
        // (statement, want_endl, the stream chain it becomes or `None`
        // when it must stay as it is)
        let table: &[(&str, bool, Option<&str>)] = &[
            (
                r#"printf("100%% done");"#,
                false,
                Some(r#"cout << "100% done";"#),
            ),
            (r#"printf("%d", n);"#, false, Some("cout << n;")),
            (r#"printf("%lld", n);"#, false, Some("cout << n;")),
            (r#"printf("%.6lf", x);"#, false, Some("cout << x;")),
            (
                r#"printf("[%5d]", n);"#,
                false,
                Some(r#"cout << "[" << n << "]";"#),
            ),
            (r#"printf("%u", n);"#, false, Some("cout << n;")),
            (r#"printf("%x", n);"#, false, None),
            (r#"printf("%d %d", a);"#, false, None),
            (
                r#"printf("Case #%d: %d\n", t, r);"#,
                true,
                Some(r#"cout << "Case #" << t << ": " << r << endl;"#),
            ),
            (
                r#"printf("Case #%d: %d\n", t, r);"#,
                false,
                Some(r#"cout << "Case #" << t << ": " << r << "\n";"#),
            ),
            (r#"printf("\n");"#, true, Some("cout << endl;")),
            (r#"printf("%s", s.c_str());"#, false, Some("cout << s;")),
            (
                r#"printf("%s", "done\n");"#,
                true,
                Some(r#"cout << "done\n";"#),
            ),
            (
                r#"scanf("%d %lld", &a, &b);"#,
                false,
                Some("cin >> a >> b;"),
            ),
            (r#"scanf("%d");"#, false, None),
            (r#"puts("hi");"#, false, None),
        ];
        for &(src, want_endl, expected) in table {
            let mut got = stmt(src);
            stdio_to_stream(&mut got, want_endl);
            let expected = stmt(expected.unwrap_or(src));
            assert_eq!(got, expected, "{src} (want_endl {want_endl})");
        }
    }

    #[test]
    fn loop_and_conditional_rewrites() {
        let mut s = stmt("for (int i = 0, j = n; i < j; i++) { f(i); }");
        for_to_while(&mut s);
        assert_eq!(
            s,
            stmt("{ int i = 0, j = n; while (i < j) { f(i); i++; } }")
        );
        let Stmt::Block(mut b) = s else {
            panic!("wrapper block");
        };
        split_declarations(&mut b);
        assert_eq!(
            Stmt::Block(b),
            stmt("{ int i = 0; int j = n; while (i < j) { f(i); i++; } }")
        );

        let mut s = stmt("for (; i < n;) { f(i); }");
        for_to_while(&mut s);
        assert_eq!(s, stmt("while (i < n) { f(i); }"));
        let mut s = stmt("for (;;) { f(i); }");
        for_to_while(&mut s);
        assert_eq!(s, stmt("for (;;) { f(i); }"));

        let mut s = stmt("x += (c > 0) ? a : b;");
        ternary_assign_to_if(&mut s);
        assert_eq!(s, stmt("if (c > 0) { x += a; } else { x += b; }"));
    }

    #[test]
    fn foreach_lowering_asks_for_an_index_only_when_it_applies() {
        let mut s = stmt("for (auto c : s) { f(c); }");
        lower_foreach(&mut s, |name| {
            assert_eq!(name, "c");
            Some("k".into())
        });
        assert_eq!(
            s,
            stmt("for (int k = 0; k < (int)s.size(); k++) { int c = s[k]; f(c); }")
        );
        for src in ["for (auto& c : s) { f(c); }", "for (int c : f()) { g(c); }"] {
            let mut s = stmt(src);
            lower_foreach(&mut s, |_| panic!("asked about {src}"));
            assert_eq!(s, stmt(src));
        }
        let mut s = stmt("for (int c : s) { f(c); }");
        lower_foreach(&mut s, |_| None);
        assert_eq!(s, stmt("for (int c : s) { f(c); }"));
    }
}
