//! A single-pass AST statistics collector shared by the lexical and
//! syntactic feature families.

use synthattr_lang::ast::*;
use synthattr_lang::visit::{walk_item, Visitor};

/// The per-identifier summary every name-derived feature reads: byte
/// length, the three casing/underscore predicates, and the stable
/// unigram hash. Collected once per name at walk time so merging
/// per-item partials is a flat copy instead of a `String` clone per
/// identifier (the walk itself also stops allocating).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdentStat {
    /// `name.len()` in bytes.
    pub len: u32,
    /// `name.contains('_')`.
    pub snake: bool,
    /// Starts lowercase and contains an uppercase letter (camelCase).
    pub camel: bool,
    /// Starts with an uppercase letter.
    pub upper: bool,
    /// [`crate::stable_hash`] of the name (unigram bucketing).
    pub hash: u64,
}

impl IdentStat {
    /// Summarises one identifier name.
    pub fn of(name: &str) -> Self {
        IdentStat {
            len: name.len() as u32,
            snake: name.contains('_'),
            camel: name.chars().next().is_some_and(|c| c.is_ascii_lowercase())
                && name.chars().any(|c| c.is_ascii_uppercase()),
            upper: name.chars().next().is_some_and(|c| c.is_ascii_uppercase()),
            hash: crate::stable_hash(name),
        }
    }
}

/// Raw counts harvested from one translation unit in a single walk.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CodeStats {
    /// `if` statements.
    pub if_count: usize,
    /// `if` statements carrying an `else` branch.
    pub else_count: usize,
    /// Classic `for` loops.
    pub for_count: usize,
    /// Range-based `for` loops.
    pub foreach_count: usize,
    /// `while` loops.
    pub while_count: usize,
    /// `do`-`while` loops.
    pub do_count: usize,
    /// `return` statements.
    pub return_count: usize,
    /// `break` / `continue` statements.
    pub jump_count: usize,
    /// Ternary expressions.
    pub ternary_count: usize,
    /// Function definitions.
    pub function_count: usize,
    /// Total parameters over all functions.
    pub param_count: usize,
    /// Local + global declarations (declarators).
    pub declarator_count: usize,
    /// Declarations with multiple declarators (`int a, b;`).
    pub multi_declarations: usize,
    /// Literals of all kinds.
    pub literal_count: usize,
    /// String literals.
    pub string_count: usize,
    /// Call expressions.
    pub call_count: usize,
    /// Identifier *uses* (expression positions).
    pub ident_uses: usize,
    /// Every identifier observed (uses + declarations), summarised in
    /// observation order.
    pub ident_names: Vec<IdentStat>,
    /// `cin >>` / `cout <<` stream expressions.
    pub stream_io_count: usize,
    /// `scanf` / `printf` call count.
    pub stdio_count: usize,
    /// Uses of `endl` (vs `"\n"`).
    pub endl_count: usize,
    /// Newline string literals used for output.
    pub newline_literal_count: usize,
    /// Pre-increment/decrement unary expressions.
    pub pre_incdec: usize,
    /// Post-increment/decrement unary expressions.
    pub post_incdec: usize,
    /// C-style casts.
    pub c_casts: usize,
    /// `static_cast` casts.
    pub static_casts: usize,
    /// Compound assignments (`+=` etc., not plain `=`).
    pub compound_assign: usize,
    /// Plain assignments.
    pub plain_assign: usize,
    /// Line comments.
    pub line_comments: usize,
    /// Block comments.
    pub block_comments: usize,
    /// `#include` directives.
    pub include_count: usize,
    /// Other directives (`#define`, ...).
    pub define_count: usize,
    /// `typedef` + `using` alias items.
    pub alias_count: usize,
    /// `using namespace` present.
    pub using_namespace: bool,
    /// Total AST nodes (from the kind stream).
    pub node_count: usize,
}

impl CodeStats {
    /// Collects statistics for `unit`: the merge of its items'
    /// [`CodeStats::collect_item`] partials.
    pub fn collect(unit: &TranslationUnit) -> Self {
        let parts: Vec<CodeStats> = unit.items.iter().map(CodeStats::collect_item).collect();
        CodeStats::merge(&parts)
    }

    /// Collects statistics for one top-level item, exactly as a
    /// whole-unit walk would have contributed them (items sit at depth
    /// 1; only `node_count` observes depth-free node events, so the
    /// partial is the item's slice of the whole-unit walk verbatim).
    pub fn collect_item(item: &Item) -> Self {
        let mut stats = CodeStats::default();
        walk_item(item, &mut stats, 1);
        stats
    }

    /// Merges per-item partials into whole-unit statistics, adding the
    /// unit root's own node. Every field is an integer count, a bool
    /// OR, or an order-preserving name concatenation, so the merge
    /// equals one walk over the whole unit.
    pub fn merge<'a>(parts: impl IntoIterator<Item = &'a Self>) -> Self {
        let mut total = CodeStats::default();
        for p in parts {
            // Exhaustive destructuring: adding a field to CodeStats
            // without deciding how it merges is a compile error.
            let CodeStats {
                if_count,
                else_count,
                for_count,
                foreach_count,
                while_count,
                do_count,
                return_count,
                jump_count,
                ternary_count,
                function_count,
                param_count,
                declarator_count,
                multi_declarations,
                literal_count,
                string_count,
                call_count,
                ident_uses,
                ident_names,
                stream_io_count,
                stdio_count,
                endl_count,
                newline_literal_count,
                pre_incdec,
                post_incdec,
                c_casts,
                static_casts,
                compound_assign,
                plain_assign,
                line_comments,
                block_comments,
                include_count,
                define_count,
                alias_count,
                using_namespace,
                node_count,
            } = p;
            total.if_count += if_count;
            total.else_count += else_count;
            total.for_count += for_count;
            total.foreach_count += foreach_count;
            total.while_count += while_count;
            total.do_count += do_count;
            total.return_count += return_count;
            total.jump_count += jump_count;
            total.ternary_count += ternary_count;
            total.function_count += function_count;
            total.param_count += param_count;
            total.declarator_count += declarator_count;
            total.multi_declarations += multi_declarations;
            total.literal_count += literal_count;
            total.string_count += string_count;
            total.call_count += call_count;
            total.ident_uses += ident_uses;
            total.ident_names.extend_from_slice(ident_names);
            total.stream_io_count += stream_io_count;
            total.stdio_count += stdio_count;
            total.endl_count += endl_count;
            total.newline_literal_count += newline_literal_count;
            total.pre_incdec += pre_incdec;
            total.post_incdec += post_incdec;
            total.c_casts += c_casts;
            total.static_casts += static_casts;
            total.compound_assign += compound_assign;
            total.plain_assign += plain_assign;
            total.line_comments += line_comments;
            total.block_comments += block_comments;
            total.include_count += include_count;
            total.define_count += define_count;
            total.alias_count += alias_count;
            total.using_namespace |= using_namespace;
            total.node_count += node_count;
        }
        // The unit root node itself.
        total.node_count += 1;
        total
    }

    /// All loops of any kind.
    pub fn loop_count(&self) -> usize {
        self.for_count + self.foreach_count + self.while_count + self.do_count
    }

    /// Identifier name lengths.
    pub fn ident_lengths(&self) -> Vec<f64> {
        self.ident_names.iter().map(|n| n.len as f64).collect()
    }
}

impl Visitor for CodeStats {
    fn visit(&mut self, _kind: NodeKind, _depth: usize) {
        self.node_count += 1;
    }

    fn visit_item(&mut self, item: &Item) {
        match item {
            Item::Include { .. } => self.include_count += 1,
            Item::Define { .. } => self.define_count += 1,
            Item::UsingNamespace(_) => self.using_namespace = true,
            Item::Typedef { .. } | Item::UsingAlias { .. } => self.alias_count += 1,
            Item::Comment(c) => {
                if c.block {
                    self.block_comments += 1;
                } else {
                    self.line_comments += 1;
                }
            }
            Item::Function(f) => {
                self.function_count += 1;
                self.param_count += f.params.len();
                self.ident_names.push(IdentStat::of(&f.name));
                for p in &f.params {
                    self.ident_names.push(IdentStat::of(&p.name));
                }
            }
            Item::GlobalVar(d) => self.note_declaration(d),
        }
    }

    fn visit_stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Decl(d) => self.note_declaration(d),
            Stmt::If { else_branch, .. } => {
                self.if_count += 1;
                if else_branch.is_some() {
                    self.else_count += 1;
                }
            }
            Stmt::For { .. } => self.for_count += 1,
            Stmt::ForEach { name, .. } => {
                self.foreach_count += 1;
                self.ident_names.push(IdentStat::of(name));
            }
            Stmt::While { .. } => self.while_count += 1,
            Stmt::DoWhile { .. } => self.do_count += 1,
            Stmt::Return(_) => self.return_count += 1,
            Stmt::Break | Stmt::Continue => self.jump_count += 1,
            Stmt::Comment(c) => {
                if c.block {
                    self.block_comments += 1;
                } else {
                    self.line_comments += 1;
                }
            }
            _ => {}
        }
    }

    fn visit_expr(&mut self, expr: &Expr) {
        match expr {
            Expr::Int(_) | Expr::Float(_) | Expr::Char(_) | Expr::Bool(_) => {
                self.literal_count += 1;
            }
            Expr::Str(s) => {
                self.literal_count += 1;
                self.string_count += 1;
                if s.contains('\n') {
                    self.newline_literal_count += 1;
                }
            }
            Expr::Ident(name) => {
                self.ident_uses += 1;
                match name.as_str() {
                    "endl" => self.endl_count += 1,
                    // Library names are not stylistic identifiers.
                    "cin" | "cout" | "cerr" | "std" | "max" | "min" | "abs" | "sort" | "swap"
                    | "sqrt" | "pow" | "floor" | "ceil" | "printf" | "scanf" | "puts"
                    | "getline" | "to_string" => {}
                    _ => self.ident_names.push(IdentStat::of(name)),
                }
            }
            Expr::Ternary { .. } => self.ternary_count += 1,
            Expr::Unary { op, .. } => match op {
                UnaryOp::PreInc | UnaryOp::PreDec => self.pre_incdec += 1,
                UnaryOp::PostInc | UnaryOp::PostDec => self.post_incdec += 1,
                _ => {}
            },
            Expr::Binary { op, lhs, .. } => {
                if matches!(op, BinaryOp::Shl | BinaryOp::Shr) {
                    // A chained stream expression like `cout << a << b`
                    // nests left, so exactly one node in the chain has
                    // the stream object as its *direct* left operand —
                    // counting that node counts each chain once.
                    if let Expr::Ident(base) = lhs.unparenthesized() {
                        if base == "cin" || base == "cout" || base == "cerr" {
                            self.stream_io_count += 1;
                        }
                    }
                }
            }
            Expr::Assign { op, .. } => {
                if matches!(op, AssignOp::Assign) {
                    self.plain_assign += 1;
                } else {
                    self.compound_assign += 1;
                }
            }
            Expr::Call { callee, .. } => {
                self.call_count += 1;
                if let Expr::Ident(name) = callee.unparenthesized() {
                    if name == "printf" || name == "scanf" {
                        self.stdio_count += 1;
                    }
                }
            }
            Expr::Cast { .. } => self.c_casts += 1,
            Expr::StaticCast { .. } => self.static_casts += 1,
            _ => {}
        }
    }
}

impl CodeStats {
    fn note_declaration(&mut self, d: &Declaration) {
        self.declarator_count += d.declarators.len();
        if d.declarators.len() > 1 {
            self.multi_declarations += 1;
        }
        for dd in &d.declarators {
            self.ident_names.push(IdentStat::of(&dd.name));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthattr_lang::parse;

    const SRC: &str = r#"
#include <iostream>
#include <vector>
#define MAXN 100
using namespace std;
typedef long long ll;
// a helper
int helper(int a, int b) {
    return a > b ? a : b;
}
int main() {
    int n, m;
    double total = 0.5;
    cin >> n >> m;
    for (int i = 0; i < n; ++i) {
        total += (double)i;
        if (i % 2 == 0) {
            total = total * 2;
        } else {
            continue;
        }
    }
    while (m > 0) m--;
    printf("%d\n", n);
    cout << helper(n, m) << endl;
    return 0;
}
"#;

    fn stats() -> CodeStats {
        CodeStats::collect(&parse(SRC).unwrap())
    }

    #[test]
    fn counts_control_flow() {
        let s = stats();
        assert_eq!(s.if_count, 1);
        assert_eq!(s.else_count, 1);
        assert_eq!(s.for_count, 1);
        assert_eq!(s.while_count, 1);
        assert_eq!(s.return_count, 2);
        assert_eq!(s.jump_count, 1);
        assert_eq!(s.ternary_count, 1);
        assert_eq!(s.loop_count(), 2);
    }

    #[test]
    fn counts_io_idioms() {
        let s = stats();
        assert_eq!(s.stream_io_count, 2); // one cin chain + one cout chain
        assert_eq!(s.stdio_count, 1); // printf
        assert_eq!(s.endl_count, 1);
        assert_eq!(s.newline_literal_count, 1); // "%d\n"
    }

    #[test]
    fn counts_declarations_and_functions() {
        let s = stats();
        assert_eq!(s.function_count, 2);
        assert_eq!(s.param_count, 2);
        assert!(s.declarator_count >= 4); // n, m, total, i
        assert_eq!(s.multi_declarations, 1); // int n, m;
        assert_eq!(s.include_count, 2);
        assert_eq!(s.define_count, 1);
        assert_eq!(s.alias_count, 1);
        assert!(s.using_namespace);
        assert_eq!(s.line_comments, 1);
    }

    #[test]
    fn counts_operators_and_casts() {
        let s = stats();
        assert_eq!(s.pre_incdec, 1); // ++i
        assert_eq!(s.post_incdec, 1); // m--
        assert_eq!(s.c_casts, 1);
        assert_eq!(s.compound_assign, 1); // total +=
        assert!(s.plain_assign >= 1); // total = total * 2
    }

    #[test]
    fn ident_names_exclude_library_names() {
        let s = stats();
        let has = |name: &str| {
            let stat = IdentStat::of(name);
            s.ident_names.contains(&stat)
        };
        assert!(has("total"));
        assert!(has("helper"));
        assert!(!has("cin"));
        assert!(!has("endl"));
        assert!(!has("printf"));
    }

    #[test]
    fn empty_program_has_zero_stats() {
        let s = CodeStats::collect(&parse("").unwrap());
        assert_eq!(s.function_count, 0);
        assert_eq!(s.loop_count(), 0);
        assert_eq!(s.node_count, 1);
    }
}
