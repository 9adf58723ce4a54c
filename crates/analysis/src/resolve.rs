//! Block-scoped symbol resolution over the C++ subset AST.
//!
//! The resolver walks a [`TranslationUnit`] once and produces a
//! [`Resolution`]: every declaration it saw (with use counts, shadowing
//! and duplicate links) plus every identifier use it could not resolve.
//! File scope is handled leniently — all top-level names are registered
//! before any function body is resolved, mirroring how competitive
//! programs rely on forward references — and a fixed set of standard
//! library names counts as declared whenever the unit has at least one
//! `#include` or a `using namespace` directive.
//!
//! Diagnostic sites are *structural paths* (e.g. `main/[3]/for/body/[0]`)
//! rather than line/column spans. The analyzer compares diagnostics
//! across differently-rendered texts of the same program (pre- and
//! post-transformation), and structural paths are stable under
//! re-rendering where source spans are not.

use crate::cfg::is_cin_chain;
use std::collections::HashMap;
use synthattr_lang::ast::*;

/// What kind of declaration a [`Binding`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BindingKind {
    /// A file-scope variable.
    Global,
    /// A function definition.
    Function,
    /// A function parameter.
    Param,
    /// A block-local variable (including `for`-init declarations).
    Local,
    /// A range-`for` loop variable.
    ForEachVar,
    /// A `typedef` or `using` alias name.
    TypeAlias,
    /// A `#define`d macro name.
    Macro,
}

impl BindingKind {
    /// Whether the binding names a runtime variable (the kinds the
    /// unused-variable pass cares about).
    pub fn is_variable(self) -> bool {
        matches!(
            self,
            BindingKind::Global | BindingKind::Param | BindingKind::Local | BindingKind::ForEachVar
        )
    }
}

/// One declaration site.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Declared name.
    pub name: String,
    /// Declaration kind.
    pub kind: BindingKind,
    /// Structural path of the declaration site.
    pub site: String,
    /// Number of resolved uses.
    pub uses: usize,
    /// Number of resolved uses that *read* the value. A use that only
    /// stores (simple-assignment target, `cin >>` target, `&x` handed
    /// to `scanf`, `getline`'s destination) counts toward `uses` but
    /// not `reads`; compound assignments and `++`/`--` read first, so
    /// they count toward both.
    pub reads: usize,
    /// Index of an outer-scope binding this one shadows, if any.
    pub shadows: Option<usize>,
    /// Index of a same-scope binding this one duplicates, if any.
    pub duplicate_of: Option<usize>,
}

/// An identifier use that resolved to nothing.
#[derive(Debug, Clone)]
pub struct Undeclared {
    /// The unresolved name.
    pub name: String,
    /// Structural path of the use site.
    pub site: String,
}

/// The result of resolving a unit.
#[derive(Debug, Clone, Default)]
pub struct Resolution {
    /// Every declaration site, in visit order.
    pub bindings: Vec<Binding>,
    /// Every unresolved identifier use, in visit order.
    pub undeclared: Vec<Undeclared>,
    /// Whether std names were considered in scope.
    pub std_in_scope: bool,
}

/// Standard-library names treated as declared when the unit includes
/// headers or opens `namespace std`. The set holds the library names of
/// [`synthattr_lang::token::is_reserved_name`] (all but `main` and
/// `ll`, which a program declares itself) and extends them, so that
/// nothing the generator or the style simulator emits can be reported
/// as undeclared.
pub const STD_NAMES: &[&str] = &[
    "cin",
    "cout",
    "cerr",
    "endl",
    "string",
    "vector",
    "pair",
    "map",
    "set",
    "max",
    "min",
    "abs",
    "sort",
    "swap",
    "printf",
    "scanf",
    "puts",
    "getline",
    "to_string",
    "make_pair",
    "sqrt",
    "pow",
    "floor",
    "ceil",
    "round",
    "fabs",
    "memset",
    "strlen",
    "isdigit",
    "isalpha",
    "tolower",
    "toupper",
    "INT_MAX",
    "INT_MIN",
    "LLONG_MAX",
    "LLONG_MIN",
    "EOF",
    "NULL",
    "size_t",
    "std",
    "fixed",
    "setprecision",
];

/// Whether `name` is a standard-library name per [`STD_NAMES`].
///
/// Namespace-qualified names (`ios_base::sync_with_stdio`) are always
/// library names: the parser only produces them for non-`std`
/// qualifiers, and user code cannot declare one.
pub fn is_std_name(name: &str) -> bool {
    STD_NAMES.contains(&name) || name.contains("::")
}

/// Resolves `unit`, producing bindings, use counts and unresolved uses.
pub fn resolve(unit: &TranslationUnit) -> Resolution {
    let mut r = Resolver {
        res: Resolution {
            std_in_scope: unit
                .items
                .iter()
                .any(|i| matches!(i, Item::Include { .. }) || matches!(i, Item::UsingNamespace(_))),
            ..Resolution::default()
        },
        scopes: vec![HashMap::new()],
        path: Vec::new(),
    };
    r.file_scope_prepass(unit);
    r.resolve_items(unit);
    r.res
}

struct Resolver {
    res: Resolution,
    /// Innermost scope last; each maps name -> binding index.
    scopes: Vec<HashMap<String, usize>>,
    path: Vec<String>,
}

impl Resolver {
    fn site(&self) -> String {
        self.path.join("/")
    }

    fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    /// Registers a declaration in the current scope, recording shadow
    /// and duplicate links against already-visible bindings.
    fn bind(&mut self, name: &str, kind: BindingKind) {
        let idx = self.res.bindings.len();
        let duplicate_of = self.scopes.last().and_then(|s| s.get(name)).copied();
        let shadows = if duplicate_of.is_none() {
            self.scopes[..self.scopes.len() - 1]
                .iter()
                .rev()
                .find_map(|s| s.get(name))
                .copied()
        } else {
            None
        };
        self.res.bindings.push(Binding {
            name: name.to_string(),
            kind,
            site: self.site(),
            uses: 0,
            reads: 0,
            shadows,
            duplicate_of,
        });
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(name.to_string(), idx);
    }

    /// Resolves a name use: innermost binding wins, then std names,
    /// otherwise the use is recorded as undeclared.
    fn use_name(&mut self, name: &str) {
        self.use_name_ctx(name, true);
    }

    /// Resolves a use that only stores into the name (no read).
    fn use_name_write(&mut self, name: &str) {
        self.use_name_ctx(name, false);
    }

    fn use_name_ctx(&mut self, name: &str, is_read: bool) {
        for scope in self.scopes.iter().rev() {
            if let Some(&idx) = scope.get(name) {
                self.res.bindings[idx].uses += 1;
                if is_read {
                    self.res.bindings[idx].reads += 1;
                }
                return;
            }
        }
        if self.res.std_in_scope && is_std_name(name) {
            return;
        }
        self.res.undeclared.push(Undeclared {
            name: name.to_string(),
            site: self.site(),
        });
    }

    /// Marks typedef/alias names referenced from a type as used.
    /// Unknown named types are ignored: the subset routinely mentions
    /// library types the resolver has no declaration for.
    fn use_type(&mut self, ty: &Type) {
        match ty {
            Type::Named(n) => {
                for scope in self.scopes.iter().rev() {
                    if let Some(&idx) = scope.get(n) {
                        self.res.bindings[idx].uses += 1;
                        return;
                    }
                }
            }
            Type::Vector(t) | Type::Set(t) | Type::Ref(t) | Type::Const(t) => self.use_type(t),
            Type::Pair(a, b) | Type::Map(a, b) => {
                self.use_type(a);
                self.use_type(b);
            }
            _ => {}
        }
    }

    /// Registers every file-scope name before resolving bodies, so
    /// forward references (`main` calling a helper defined later,
    /// globals initialized from a later function) resolve.
    fn file_scope_prepass(&mut self, unit: &TranslationUnit) {
        for (i, item) in unit.items.iter().enumerate() {
            self.path.push(format!("[{i}]"));
            match item {
                Item::GlobalVar(d) => {
                    for dd in &d.declarators {
                        self.bind(&dd.name, BindingKind::Global);
                    }
                }
                Item::Function(f) => self.bind(&f.name, BindingKind::Function),
                Item::Typedef { name, .. } | Item::UsingAlias { name, .. } => {
                    self.bind(name, BindingKind::TypeAlias)
                }
                Item::Define { text } => {
                    if let Some(name) = define_name(text) {
                        self.bind(name, BindingKind::Macro);
                    }
                }
                _ => {}
            }
            self.path.pop();
        }
    }

    fn resolve_items(&mut self, unit: &TranslationUnit) {
        for item in &unit.items {
            match item {
                Item::GlobalVar(d) => {
                    self.path.push("global".into());
                    // Names were bound in the prepass; only the
                    // initializer expressions remain to resolve.
                    for dd in &d.declarators {
                        self.declarator_exprs(dd);
                    }
                    self.use_type(&d.ty);
                    self.path.pop();
                }
                Item::Typedef { ty, .. } | Item::UsingAlias { ty, .. } => self.use_type(ty),
                Item::Function(f) => self.resolve_function(f),
                _ => {}
            }
        }
    }

    fn resolve_function(&mut self, f: &Function) {
        self.path.push(f.name.clone());
        self.use_type(&f.ret);
        // Parameters live in the same scope as the body's top level:
        // redeclaring a parameter name there is an error in C++.
        self.push_scope();
        for p in &f.params {
            self.use_type(&p.ty);
            self.bind(&p.name, BindingKind::Param);
        }
        self.stmts(&f.body.stmts);
        self.pop_scope();
        self.path.pop();
    }

    fn stmts(&mut self, stmts: &[Stmt]) {
        for (i, stmt) in stmts.iter().enumerate() {
            self.path.push(format!("[{i}]"));
            self.stmt(stmt);
            self.path.pop();
        }
    }

    fn block(&mut self, label: &str, b: &Block) {
        self.path.push(label.to_string());
        self.push_scope();
        self.stmts(&b.stmts);
        self.pop_scope();
        self.path.pop();
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Decl(d) => self.declaration(d),
            Stmt::Expr(e) => self.expr(e),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expr(cond);
                self.block("then", then_branch);
                if let Some(e) = else_branch {
                    self.block("else", e);
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                // The for-init scope encloses cond, step and body; the
                // body is its own scope (shadowing the induction
                // variable there is legal, redeclaring it is not).
                self.path.push("for".into());
                self.push_scope();
                if let Some(i) = init {
                    self.path.push("init".into());
                    self.stmt(i);
                    self.path.pop();
                }
                if let Some(c) = cond {
                    self.expr(c);
                }
                if let Some(s) = step {
                    self.expr(s);
                }
                self.block("body", body);
                self.pop_scope();
                self.path.pop();
            }
            Stmt::ForEach {
                ty,
                name,
                iterable,
                body,
                by_ref: _,
            } => {
                // The iterable is evaluated in the enclosing scope; the
                // loop variable is only visible in the body.
                self.expr(iterable);
                self.path.push("foreach".into());
                self.push_scope();
                self.use_type(ty);
                self.bind(name, BindingKind::ForEachVar);
                self.block("body", body);
                self.pop_scope();
                self.path.pop();
            }
            Stmt::While { cond, body } => {
                self.expr(cond);
                self.block("while", body);
            }
            Stmt::DoWhile { body, cond } => {
                self.block("do", body);
                self.expr(cond);
            }
            Stmt::Return(e) => {
                if let Some(e) = e {
                    self.expr(e);
                }
            }
            Stmt::Block(b) => self.block("block", b),
            Stmt::Break | Stmt::Continue | Stmt::Comment(_) | Stmt::Empty => {}
        }
    }

    fn declaration(&mut self, d: &Declaration) {
        self.use_type(&d.ty);
        // Left-to-right: each declarator's initializer resolves before
        // its own name is bound (`int n = m, k = n;` binds `n` before
        // `k`'s initializer, but `int x = x;` must not resolve to
        // itself — that is exactly the orphaned-variable shape a bad
        // helper extraction produces).
        for dd in &d.declarators {
            self.declarator_exprs(dd);
            self.bind(&dd.name, BindingKind::Local);
        }
    }

    fn declarator_exprs(&mut self, dd: &Declarator) {
        if let Some(extent) = &dd.array {
            self.expr(extent);
        }
        match &dd.init {
            Some(Initializer::Assign(e)) => self.expr(e),
            Some(Initializer::Ctor(args)) => {
                for a in args {
                    self.expr(a);
                }
            }
            None => {}
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Ident(name) => self.use_name(name),
            // `&x` in this subset only ever feeds `scanf`, which stores
            // into the target.
            Expr::Unary {
                op: UnaryOp::AddrOf,
                expr,
            } => match expr.unparenthesized() {
                Expr::Ident(name) => self.use_name_write(name),
                _ => self.expr(expr),
            },
            Expr::Unary { expr, .. } => self.expr(expr),
            // A simple-assignment target is stored to, not read;
            // compound assignments (`+=` …) read the old value first
            // and fall through to the general arm.
            Expr::Assign {
                op: AssignOp::Assign,
                lhs,
                rhs,
            } => {
                match lhs.unparenthesized() {
                    Expr::Ident(name) => self.use_name_write(name),
                    _ => self.expr(lhs),
                }
                self.expr(rhs);
            }
            // `cin >> x` stores into `x`; chains associate left, so the
            // lhs recursion re-enters this arm for every target.
            Expr::Binary {
                op: BinaryOp::Shr,
                lhs,
                rhs,
            } if is_cin_chain(lhs) => {
                self.expr(lhs);
                match rhs.unparenthesized() {
                    Expr::Ident(name) => self.use_name_write(name),
                    _ => self.expr(rhs),
                }
            }
            Expr::Binary { lhs, rhs, .. } | Expr::Assign { lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                self.expr(cond);
                self.expr(then_expr);
                self.expr(else_expr);
            }
            Expr::Call { callee, args } => {
                self.expr(callee);
                // `getline(cin, s)` stores into its second argument.
                let getline_target = match callee.unparenthesized() {
                    Expr::Ident(n) if n == "getline" && args.len() >= 2 => Some(1),
                    _ => None,
                };
                for (i, a) in args.iter().enumerate() {
                    match (Some(i) == getline_target, a.unparenthesized()) {
                        (true, Expr::Ident(name)) => self.use_name_write(name),
                        _ => self.expr(a),
                    }
                }
            }
            // Member names are not scoped identifiers; only the base
            // expression resolves.
            Expr::Member { base, .. } => self.expr(base),
            Expr::Index { base, index } => {
                self.expr(base);
                self.expr(index);
            }
            Expr::Cast { ty, expr } | Expr::StaticCast { ty, expr } => {
                self.use_type(ty);
                self.expr(expr);
            }
            Expr::Paren(inner) => self.expr(inner),
            Expr::InitList(elems) => {
                for e in elems {
                    self.expr(e);
                }
            }
            Expr::Int(_) | Expr::Float(_) | Expr::Str(_) | Expr::Char(_) | Expr::Bool(_) => {}
        }
    }
}

pub use synthattr_lang::visit::define_name;

#[cfg(test)]
mod tests {
    use super::*;
    use synthattr_lang::parse;

    fn resolve_src(src: &str) -> Resolution {
        resolve(&parse(src).expect("test source parses"))
    }

    #[test]
    fn clean_program_has_no_undeclared() {
        let r = resolve_src(
            r#"
#include <iostream>
using namespace std;
int main() {
    int n;
    cin >> n;
    for (int i = 0; i < n; ++i) cout << i << endl;
    return 0;
}
"#,
        );
        assert!(r.undeclared.is_empty(), "{:?}", r.undeclared);
        assert!(r.std_in_scope);
    }

    #[test]
    fn undeclared_use_is_reported() {
        let r = resolve_src("#include <iostream>\nint main() { int a = b; return a; }");
        assert_eq!(r.undeclared.len(), 1);
        assert_eq!(r.undeclared[0].name, "b");
    }

    #[test]
    fn std_names_require_an_include_or_using() {
        let r = resolve_src("int main() { cout << 1; return 0; }");
        assert_eq!(r.undeclared.len(), 1);
        assert_eq!(r.undeclared[0].name, "cout");
    }

    #[test]
    fn self_initialization_does_not_resolve_to_itself() {
        let r = resolve_src("#include <iostream>\nint main() { int x = x; return x; }");
        assert_eq!(r.undeclared.len(), 1, "{:?}", r.undeclared);
        assert_eq!(r.undeclared[0].name, "x");
    }

    #[test]
    fn forward_function_references_resolve() {
        let r = resolve_src(
            "#include <iostream>\nint main() { return helper(); }\nint helper() { return 1; }",
        );
        assert!(r.undeclared.is_empty(), "{:?}", r.undeclared);
    }

    #[test]
    fn for_init_binds_in_loop_scope_only() {
        let r = resolve_src(
            "#include <iostream>\nint main() { for (int i = 0; i < 3; i++) { } return i; }",
        );
        assert_eq!(r.undeclared.len(), 1);
        assert_eq!(r.undeclared[0].name, "i");
    }

    #[test]
    fn duplicate_and_shadow_links() {
        let r = resolve_src(
            "#include <iostream>\nint main() { int a = 1; int a = 2; { int b = a; int n = b; } int n = 3; return n; }",
        );
        let dups: Vec<&Binding> = r
            .bindings
            .iter()
            .filter(|b| b.duplicate_of.is_some())
            .collect();
        assert_eq!(dups.len(), 1);
        assert_eq!(dups[0].name, "a");
        // The inner `n` precedes the outer `n`, so neither shadows.
        assert!(r.bindings.iter().all(|b| b.shadows.is_none()));
    }

    #[test]
    fn shadowing_is_linked_across_scopes() {
        let r = resolve_src(
            "#include <iostream>\nint x;\nint main() { int x = 1; { int x = 2; cout << x; } return x; }",
        );
        let shadowers: Vec<&Binding> = r.bindings.iter().filter(|b| b.shadows.is_some()).collect();
        assert_eq!(shadowers.len(), 2, "{:?}", shadowers);
    }

    #[test]
    fn typedef_names_count_as_used_from_types() {
        let r = resolve_src("typedef long long ll;\nint main() { ll x = 1; return (int)x; }");
        let td = r
            .bindings
            .iter()
            .find(|b| b.kind == BindingKind::TypeAlias)
            .expect("typedef binding");
        assert_eq!(td.name, "ll");
        assert!(td.uses > 0);
    }

    #[test]
    fn define_name_extraction() {
        assert_eq!(define_name("define MAXN 100"), Some("MAXN"));
        assert_eq!(define_name("define SQ(x) ((x)*(x))"), Some("SQ"));
        assert_eq!(define_name("pragma once"), None);
    }

    #[test]
    fn foreach_variable_scopes_to_body() {
        let r = resolve_src(
            "#include <vector>\nusing namespace std;\nint main() { vector<int> v; for (int x : v) { cout << x; } return x; }",
        );
        assert_eq!(r.undeclared.len(), 1, "{:?}", r.undeclared);
        assert_eq!(r.undeclared[0].name, "x");
    }
}
