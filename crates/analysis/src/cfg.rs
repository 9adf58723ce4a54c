//! Per-function control-flow graphs over the C++ subset AST.
//!
//! [`Cfg::build_all`] lowers every function of a translation unit into
//! basic blocks of [`CfgStmt`]s — flat def/use records plus a lowered
//! arithmetic form ([`CExpr`]) for constant propagation — connected by
//! the edges `if`/`while`/`for`/range-`for`/`do-while`/`break`/
//! `continue`/`return` induce. The graph deliberately mirrors the
//! resolver's view of the program:
//!
//! * **Variable identity is scope-precise.** A scope stack identical to
//!   [`crate::resolve()`]'s (params share the body's top-level scope, the
//!   `for`-init scope encloses cond/step/body, the range-`for` variable
//!   scopes to the body) maps each mention to a distinct [`VarId`], so
//!   shadowed names never alias.
//! * **Sites are structural paths.** Every [`CfgStmt`] carries the same
//!   `main/[3]/for/body/[0]`-shaped site string the resolver produces,
//!   so dataflow diagnostics land next to the existing passes' and stay
//!   stable under re-rendering.
//! * **IO defines.** `cin >> x` chains, `scanf("%d", &x)`-style
//!   address-of arguments, and `getline(cin, s)` all *assign* their
//!   target — without this every generated program would read
//!   "uninitialized" input variables.
//!
//! Only function-local variables (params, locals, range-`for`
//! variables) are tracked; globals, std names and functions are
//! invisible to the dataflow layer. Aggregate writes through an index
//! or member lvalue are conservatively recorded as *uses* of the base
//! (the previous contents survive a partial write, so the base must
//! stay live and its stores are never dead).

use std::collections::HashMap;
use synthattr_lang::ast::*;

/// Index of a basic block within [`Cfg::blocks`].
pub type BlockId = usize;

/// Index of a tracked variable within [`Cfg::vars`].
pub type VarId = usize;

/// One tracked function-local variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarInfo {
    /// Declared name (possibly shadowing another `VarInfo` of the same
    /// name — identity is the [`VarId`]).
    pub name: String,
    /// Structural path of the declaration site.
    pub site: String,
    /// Whether the variable is born uninitialized: a scalar local
    /// declared without an initializer. Params, range-`for` variables,
    /// arrays, containers and unknown named types are all considered
    /// initialized at birth (C++ value/default construction, or
    /// conservatism where the type is opaque).
    pub uninit_at_birth: bool,
    /// Whether the variable's address was taken outside a recognized
    /// IO idiom. Address-taken variables are excluded from the
    /// use-before-init and dead-store verdicts.
    pub addr_taken: bool,
}

/// Lowered right-hand side for constant propagation. Anything the
/// lattice cannot reason about folds to [`CExpr::Unknown`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CExpr {
    /// An integer constant (bools lower to 0/1, chars to their code).
    Const(i64),
    /// A tracked variable.
    Var(VarId),
    /// A unary operation.
    Unary(UnaryOp, Box<CExpr>),
    /// A binary operation.
    Binary(BinaryOp, Box<CExpr>, Box<CExpr>),
    /// Not representable in the constant lattice.
    Unknown,
}

/// One definition produced by a [`CfgStmt`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefRec {
    /// The defined variable.
    pub var: VarId,
    /// Whether the dead-store pass may report this definition. IO
    /// reads, range-`for` headers and constructor initializers assign
    /// as a side effect of doing something else, so a dead value is
    /// not a *store* the author wrote for nothing.
    pub report_dead: bool,
}

/// One flattened statement inside a basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfgStmt {
    /// Structural path (resolver-compatible).
    pub site: String,
    /// Tracked variables read, in evaluation order (duplicates kept).
    pub uses: Vec<VarId>,
    /// Variables fully (re)defined by this statement.
    pub defs: Vec<DefRec>,
    /// Lowered RHS when the statement is a single-target simple
    /// assignment or initialization; drives constant propagation.
    pub rhs: Option<CExpr>,
}

/// A maximal straight-line run of statements.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BasicBlock {
    /// Statements in execution order.
    pub stmts: Vec<CfgStmt>,
    /// Successor edges, in creation order (deterministic).
    pub succs: Vec<BlockId>,
    /// Predecessor edges (derived from `succs`).
    pub preds: Vec<BlockId>,
}

/// The control-flow graph of one function.
#[derive(Debug, Clone, PartialEq)]
pub struct Cfg {
    /// Function name.
    pub func: String,
    /// Basic blocks; `blocks[entry]` is the entry, `blocks[exit]` the
    /// single synthetic exit every `return` (and the fall-off end)
    /// feeds.
    pub blocks: Vec<BasicBlock>,
    /// Entry block id (always 0).
    pub entry: BlockId,
    /// Exit block id (always 1).
    pub exit: BlockId,
    /// Tracked variables, in declaration order.
    pub vars: Vec<VarInfo>,
}

impl Cfg {
    /// Builds one CFG per function definition in `unit`, in item
    /// order.
    pub fn build_all(unit: &TranslationUnit) -> Vec<Cfg> {
        let scalars = scalar_alias_map(unit);
        unit.items
            .iter()
            .filter_map(|item| match item {
                Item::Function(f) => Some(Cfg::build(f, &scalars)),
                _ => None,
            })
            .collect()
    }

    /// Builds the CFG of a single function. `scalar_aliases` maps
    /// typedef/using names to whether they resolve to a scalar type
    /// (see [`scalar_alias_map`]).
    pub fn build(f: &Function, scalar_aliases: &HashMap<String, bool>) -> Cfg {
        let mut b = Builder::new(f.name.clone(), scalar_aliases);
        // Parameters share the body's top-level scope and are defined
        // at entry.
        for p in &f.params {
            let v = b.declare(&p.name, false);
            b.blocks[b.cur].stmts.push(CfgStmt {
                site: f.name.clone(),
                uses: Vec::new(),
                defs: vec![DefRec {
                    var: v,
                    report_dead: false,
                }],
                rhs: None,
            });
        }
        b.stmts(&f.body.stmts);
        // Fall off the end of the body.
        b.edge(b.cur, EXIT);
        b.scopes.pop();
        let mut blocks = b.blocks;
        let nblocks = blocks.len();
        for id in 0..nblocks {
            let succs = blocks[id].succs.clone();
            for s in succs {
                blocks[s].preds.push(id);
            }
        }
        Cfg {
            func: f.name.clone(),
            blocks,
            entry: ENTRY,
            exit: EXIT,
            vars: b.vars,
        }
    }

    /// Blocks reachable from the entry, as a boolean per block.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![self.entry];
        seen[self.entry] = true;
        while let Some(b) = stack.pop() {
            for &s in &self.blocks[b].succs {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }

    /// Reverse post-order over reachable blocks starting at the entry.
    /// This is the deterministic iteration order the fixed-point solver
    /// sweeps in; unreachable blocks are appended afterwards in index
    /// order so their facts still converge.
    pub fn rpo(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.blocks.len()];
        let mut post = Vec::with_capacity(self.blocks.len());
        // Iterative DFS with an explicit phase marker to emit
        // post-order without recursion.
        let mut stack: Vec<(BlockId, usize)> = vec![(self.entry, 0)];
        visited[self.entry] = true;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            if *next < self.blocks[b].succs.len() {
                let s = self.blocks[b].succs[*next];
                *next += 1;
                if !visited[s] {
                    visited[s] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        for (id, v) in visited.iter().enumerate() {
            if !v {
                post.push(id);
            }
        }
        post
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.blocks.iter().map(|b| b.succs.len()).sum()
    }
}

/// Maps every typedef/`using` alias in `unit` to whether it names a
/// scalar type (so `ll x;` with `typedef long long ll;` is tracked as
/// born-uninitialized). Aliases of aliases resolve through the map in
/// item order, matching how the subset's single-pass declarations work.
pub fn scalar_alias_map(unit: &TranslationUnit) -> HashMap<String, bool> {
    let mut map = HashMap::new();
    for item in &unit.items {
        if let Item::Typedef { ty, name } | Item::UsingAlias { name, ty } = item {
            map.insert(name.clone(), type_is_scalar(ty, &map));
        }
    }
    map
}

/// Whether a declared type is a scalar whose locals start life with an
/// indeterminate value. Containers, strings, `auto` and unknown named
/// types default-construct (or are opaque) and count as initialized.
fn type_is_scalar(ty: &Type, aliases: &HashMap<String, bool>) -> bool {
    match ty {
        Type::Bool
        | Type::Char
        | Type::Int
        | Type::Long
        | Type::LongLong
        | Type::Unsigned
        | Type::Float
        | Type::Double => true,
        Type::Named(n) => aliases.get(n.as_str()).copied().unwrap_or(false),
        Type::Const(inner) => type_is_scalar(inner, aliases),
        _ => false,
    }
}

const ENTRY: BlockId = 0;
const EXIT: BlockId = 1;

/// Break/continue targets of the innermost loop.
struct LoopCtx {
    brk: BlockId,
    cont: BlockId,
}

struct Builder<'a> {
    blocks: Vec<BasicBlock>,
    cur: BlockId,
    vars: Vec<VarInfo>,
    /// Innermost scope last; name -> VarId.
    scopes: Vec<HashMap<String, VarId>>,
    loops: Vec<LoopCtx>,
    path: Vec<String>,
    scalar_aliases: &'a HashMap<String, bool>,
}

impl<'a> Builder<'a> {
    fn new(func: String, scalar_aliases: &'a HashMap<String, bool>) -> Self {
        Builder {
            blocks: vec![BasicBlock::default(), BasicBlock::default()],
            cur: ENTRY,
            vars: Vec::new(),
            scopes: vec![HashMap::new()],
            loops: Vec::new(),
            path: vec![func],
            scalar_aliases,
        }
    }

    fn site(&self) -> String {
        self.path.join("/")
    }

    fn new_block(&mut self) -> BlockId {
        self.blocks.push(BasicBlock::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: BlockId, to: BlockId) {
        if !self.blocks[from].succs.contains(&to) {
            self.blocks[from].succs.push(to);
        }
    }

    fn declare(&mut self, name: &str, uninit: bool) -> VarId {
        let id = self.vars.len();
        self.vars.push(VarInfo {
            name: name.to_string(),
            site: self.site(),
            uninit_at_birth: uninit,
            addr_taken: false,
        });
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(name.to_string(), id);
        id
    }

    fn lookup(&self, name: &str) -> Option<VarId> {
        self.scopes.iter().rev().find_map(|s| s.get(name)).copied()
    }

    fn push_stmt(&mut self, stmt: CfgStmt) {
        self.blocks[self.cur].stmts.push(stmt);
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
        self.scopes.push(HashMap::new());
        self.stmts(&b.stmts);
        self.scopes.pop();
        self.path.pop();
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Decl(d) => self.declaration(d),
            Stmt::Expr(e) => {
                let s = self.flatten_expr(e);
                self.push_stmt(s);
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.flatten_cond(cond);
                self.push_stmt(c);
                let here = self.cur;
                let after = self.new_block();
                let then_b = self.new_block();
                self.edge(here, then_b);
                self.cur = then_b;
                self.block("then", then_branch);
                self.edge(self.cur, after);
                match else_branch {
                    Some(e) => {
                        let else_b = self.new_block();
                        self.edge(here, else_b);
                        self.cur = else_b;
                        self.block("else", e);
                        self.edge(self.cur, after);
                    }
                    None => self.edge(here, after),
                }
                self.cur = after;
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.path.push("for".into());
                self.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.path.push("init".into());
                    self.stmt(i);
                    self.path.pop();
                }
                let cond_b = self.new_block();
                let body_b = self.new_block();
                let step_b = self.new_block();
                let after = self.new_block();
                self.edge(self.cur, cond_b);
                self.cur = cond_b;
                match cond {
                    Some(c) => {
                        let s = self.flatten_cond(c);
                        self.push_stmt(s);
                        self.edge(cond_b, body_b);
                        self.edge(cond_b, after);
                    }
                    None => self.edge(cond_b, body_b),
                }
                self.loops.push(LoopCtx {
                    brk: after,
                    cont: step_b,
                });
                self.cur = body_b;
                self.block("body", body);
                self.edge(self.cur, step_b);
                self.loops.pop();
                self.cur = step_b;
                if let Some(s) = step {
                    let st = self.flatten_expr(s);
                    self.push_stmt(st);
                }
                self.edge(step_b, cond_b);
                self.scopes.pop();
                self.path.pop();
                self.cur = after;
            }
            Stmt::ForEach {
                ty: _,
                name,
                by_ref: _,
                iterable,
                body,
            } => {
                // The iterable is evaluated once, in the enclosing
                // scope.
                let it = self.flatten_cond(iterable);
                self.push_stmt(it);
                let head = self.new_block();
                let body_b = self.new_block();
                let after = self.new_block();
                self.edge(self.cur, head);
                self.path.push("foreach".into());
                self.scopes.push(HashMap::new());
                // The header defines the loop variable each iteration.
                let v = self.declare(name, false);
                let head_site = self.site();
                self.blocks[head].stmts.push(CfgStmt {
                    site: head_site,
                    uses: Vec::new(),
                    defs: vec![DefRec {
                        var: v,
                        report_dead: false,
                    }],
                    rhs: None,
                });
                self.edge(head, body_b);
                self.edge(head, after);
                self.loops.push(LoopCtx {
                    brk: after,
                    cont: head,
                });
                self.cur = body_b;
                self.block("body", body);
                self.edge(self.cur, head);
                self.loops.pop();
                self.scopes.pop();
                self.path.pop();
                self.cur = after;
            }
            Stmt::While { cond, body } => {
                let cond_b = self.new_block();
                let body_b = self.new_block();
                let after = self.new_block();
                self.edge(self.cur, cond_b);
                self.cur = cond_b;
                let c = self.flatten_cond(cond);
                self.push_stmt(c);
                self.edge(cond_b, body_b);
                self.edge(cond_b, after);
                self.loops.push(LoopCtx {
                    brk: after,
                    cont: cond_b,
                });
                self.cur = body_b;
                self.block("while", body);
                self.edge(self.cur, cond_b);
                self.loops.pop();
                self.cur = after;
            }
            Stmt::DoWhile { body, cond } => {
                let body_b = self.new_block();
                let cond_b = self.new_block();
                let after = self.new_block();
                self.edge(self.cur, body_b);
                self.loops.push(LoopCtx {
                    brk: after,
                    cont: cond_b,
                });
                self.cur = body_b;
                self.block("do", body);
                self.edge(self.cur, cond_b);
                self.loops.pop();
                self.cur = cond_b;
                let c = self.flatten_cond(cond);
                self.push_stmt(c);
                self.edge(cond_b, body_b);
                self.edge(cond_b, after);
                self.cur = after;
            }
            Stmt::Return(e) => {
                if let Some(e) = e {
                    let s = self.flatten_cond(e);
                    self.push_stmt(s);
                }
                self.edge(self.cur, EXIT);
                // Anything after a return in the same block is
                // unreachable; give it a fresh, predecessor-less block.
                self.cur = self.new_block();
            }
            Stmt::Break => {
                if let Some(l) = self.loops.last() {
                    let t = l.brk;
                    self.edge(self.cur, t);
                }
                self.cur = self.new_block();
            }
            Stmt::Continue => {
                if let Some(l) = self.loops.last() {
                    let t = l.cont;
                    self.edge(self.cur, t);
                }
                self.cur = self.new_block();
            }
            Stmt::Block(b) => self.block("block", b),
            Stmt::Comment(_) | Stmt::Empty => {}
        }
    }

    fn declaration(&mut self, d: &Declaration) {
        let scalar = type_is_scalar(&d.ty, self.scalar_aliases);
        for dd in &d.declarators {
            let mut acc = Acc::default();
            if let Some(extent) = &dd.array {
                self.scan_expr(extent, &mut acc);
            }
            match &dd.init {
                Some(Initializer::Assign(e)) => {
                    self.scan_expr(e, &mut acc);
                    // Scan and lower *before* the name binds (`int x =
                    // x;` must not see itself), mirroring the resolver.
                    let rhs = self.lower(e);
                    let v = self.declare(&dd.name, false);
                    acc.defs.push(DefRec {
                        var: v,
                        report_dead: dd.array.is_none(),
                    });
                    self.push_stmt(CfgStmt {
                        site: self.site(),
                        uses: acc.uses,
                        defs: acc.defs,
                        rhs: Some(rhs),
                    });
                }
                Some(Initializer::Ctor(args)) => {
                    for a in args {
                        self.scan_expr(a, &mut acc);
                    }
                    let v = self.declare(&dd.name, false);
                    acc.defs.push(DefRec {
                        var: v,
                        report_dead: false,
                    });
                    self.push_stmt(CfgStmt {
                        site: self.site(),
                        uses: acc.uses,
                        defs: acc.defs,
                        rhs: None,
                    });
                }
                None => {
                    // Born uninitialized only when scalar and not an
                    // array (aggregate element tracking is out of
                    // scope).
                    let uninit = scalar && dd.array.is_none();
                    self.declare(&dd.name, uninit);
                    if !acc.uses.is_empty() {
                        // Array extents may still read variables.
                        self.push_stmt(CfgStmt {
                            site: self.site(),
                            uses: acc.uses,
                            defs: Vec::new(),
                            rhs: None,
                        });
                    }
                }
            }
        }
    }

    /// Flattens a full expression statement into one [`CfgStmt`].
    fn flatten_expr(&mut self, e: &Expr) -> CfgStmt {
        let mut acc = Acc::default();
        self.scan_expr(e, &mut acc);
        // A single simple assignment to a tracked variable carries a
        // lowered RHS for constant propagation.
        let rhs = match e.unparenthesized() {
            Expr::Assign {
                op: AssignOp::Assign,
                lhs,
                rhs,
            } if matches!(lhs.unparenthesized(), Expr::Ident(n) if self.lookup(n).is_some()) => {
                Some(self.lower(rhs))
            }
            _ => None,
        };
        CfgStmt {
            site: self.site(),
            uses: acc.uses,
            defs: acc.defs,
            rhs,
        }
    }

    /// Flattens a condition or value expression (no lowered RHS).
    fn flatten_cond(&mut self, e: &Expr) -> CfgStmt {
        let mut acc = Acc::default();
        self.scan_expr(e, &mut acc);
        CfgStmt {
            site: self.site(),
            uses: acc.uses,
            defs: acc.defs,
            rhs: None,
        }
    }

    /// Collects uses and defs of `e` in evaluation order.
    fn scan_expr(&mut self, e: &Expr, acc: &mut Acc) {
        match e {
            Expr::Ident(name) => {
                if let Some(v) = self.lookup(name) {
                    acc.uses.push(v);
                }
            }
            Expr::Unary { op, expr } => match op {
                UnaryOp::PreInc | UnaryOp::PreDec | UnaryOp::PostInc | UnaryOp::PostDec => {
                    match expr.unparenthesized() {
                        Expr::Ident(name) => {
                            if let Some(v) = self.lookup(name) {
                                // Read-modify-write.
                                acc.uses.push(v);
                                acc.defs.push(DefRec {
                                    var: v,
                                    report_dead: true,
                                });
                            }
                        }
                        other => self.scan_expr(other, acc),
                    }
                }
                UnaryOp::AddrOf => match expr.unparenthesized() {
                    // `&x` exists in the subset for scanf-style IO:
                    // the callee writes through it, so it defines.
                    Expr::Ident(name) => {
                        if let Some(v) = self.lookup(name) {
                            self.vars[v].addr_taken = true;
                            acc.defs.push(DefRec {
                                var: v,
                                report_dead: false,
                            });
                        }
                    }
                    other => self.scan_expr(other, acc),
                },
                _ => self.scan_expr(expr, acc),
            },
            Expr::Binary { op, lhs, rhs } => {
                if *op == BinaryOp::Shr && is_cin_chain(lhs) {
                    // `cin >> x >> y`: every chained target is defined.
                    self.scan_expr(lhs, acc);
                    match rhs.unparenthesized() {
                        Expr::Ident(name) => {
                            if let Some(v) = self.lookup(name) {
                                acc.defs.push(DefRec {
                                    var: v,
                                    report_dead: false,
                                });
                            }
                        }
                        other => self.scan_expr(other, acc),
                    }
                } else {
                    self.scan_expr(lhs, acc);
                    self.scan_expr(rhs, acc);
                }
            }
            Expr::Assign { op, lhs, rhs } => {
                // RHS evaluates first.
                self.scan_expr(rhs, acc);
                match lhs.unparenthesized() {
                    Expr::Ident(name) => {
                        if let Some(v) = self.lookup(name) {
                            if *op != AssignOp::Assign {
                                acc.uses.push(v);
                            }
                            acc.defs.push(DefRec {
                                var: v,
                                report_dead: true,
                            });
                        }
                    }
                    // A write through an index or member lvalue only
                    // *partially* updates the base: record the whole
                    // lvalue as uses so the base stays live.
                    other => self.scan_expr(other, acc),
                }
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                self.scan_expr(cond, acc);
                self.scan_expr(then_expr, acc);
                self.scan_expr(else_expr, acc);
            }
            Expr::Call { callee, args } => {
                if let Expr::Ident(name) = callee.unparenthesized() {
                    if name == "getline" && args.len() >= 2 {
                        // `getline(cin, s)` assigns its second
                        // argument.
                        self.scan_expr(&args[0], acc);
                        if let Expr::Ident(target) = args[1].unparenthesized() {
                            if let Some(v) = self.lookup(target) {
                                acc.defs.push(DefRec {
                                    var: v,
                                    report_dead: false,
                                });
                            }
                        } else {
                            self.scan_expr(&args[1], acc);
                        }
                        for a in &args[2..] {
                            self.scan_expr(a, acc);
                        }
                        return;
                    }
                }
                self.scan_expr(callee, acc);
                for a in args {
                    self.scan_expr(a, acc);
                }
            }
            Expr::Member { base, .. } => self.scan_expr(base, acc),
            Expr::Index { base, index } => {
                self.scan_expr(base, acc);
                self.scan_expr(index, acc);
            }
            Expr::Cast { expr, .. } | Expr::StaticCast { expr, .. } | Expr::Paren(expr) => {
                self.scan_expr(expr, acc)
            }
            Expr::InitList(elems) => {
                for e in elems {
                    self.scan_expr(e, acc);
                }
            }
            Expr::Int(_) | Expr::Float(_) | Expr::Str(_) | Expr::Char(_) | Expr::Bool(_) => {}
        }
    }

    /// Lowers an expression into the constant-propagation form.
    fn lower(&self, e: &Expr) -> CExpr {
        match e {
            Expr::Int(v) => CExpr::Const(*v),
            Expr::Bool(b) => CExpr::Const(*b as i64),
            Expr::Char(c) => CExpr::Const(*c as i64),
            Expr::Ident(name) => match self.lookup(name) {
                Some(v) => CExpr::Var(v),
                None => CExpr::Unknown,
            },
            Expr::Unary { op, expr } => match op {
                UnaryOp::Neg | UnaryOp::Plus | UnaryOp::Not | UnaryOp::BitNot => {
                    CExpr::Unary(*op, Box::new(self.lower(expr)))
                }
                _ => CExpr::Unknown,
            },
            Expr::Binary { op, lhs, rhs } => match op {
                BinaryOp::Shl | BinaryOp::Shr => CExpr::Unknown,
                _ => CExpr::Binary(*op, Box::new(self.lower(lhs)), Box::new(self.lower(rhs))),
            },
            Expr::Paren(inner) => self.lower(inner),
            Expr::Cast { expr, ty } | Expr::StaticCast { expr, ty } => {
                // Integer-to-integer casts preserve small constants.
                if type_is_scalar(ty, self.scalar_aliases)
                    && !matches!(ty, Type::Float | Type::Double)
                {
                    self.lower(expr)
                } else {
                    CExpr::Unknown
                }
            }
            _ => CExpr::Unknown,
        }
    }
}

/// Whether `e` is a `cin`-rooted `>>` chain (the lhs of a stream read).
pub(crate) fn is_cin_chain(e: &Expr) -> bool {
    match e.unparenthesized() {
        Expr::Ident(n) => n == "cin",
        Expr::Binary {
            op: BinaryOp::Shr,
            lhs,
            ..
        } => is_cin_chain(lhs),
        _ => false,
    }
}

/// Accumulated uses/defs of one statement.
#[derive(Default)]
struct Acc {
    uses: Vec<VarId>,
    defs: Vec<DefRec>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthattr_lang::parse;

    fn cfg_of(src: &str) -> Cfg {
        let unit = parse(src).expect("test source parses");
        let mut cfgs = Cfg::build_all(&unit);
        assert!(!cfgs.is_empty(), "no functions in test source");
        cfgs.remove(0)
    }

    fn var(cfg: &Cfg, name: &str) -> VarId {
        cfg.vars
            .iter()
            .position(|v| v.name == name)
            .unwrap_or_else(|| panic!("no var {name}"))
    }

    #[test]
    fn straight_line_is_one_block_plus_exit() {
        let cfg = cfg_of("int main() { int a = 1; int b = a + 2; return b; }");
        assert_eq!(cfg.blocks[cfg.entry].stmts.len(), 3);
        assert_eq!(cfg.blocks[cfg.entry].succs, vec![cfg.exit]);
        assert!(cfg.blocks[cfg.exit].succs.is_empty());
    }

    #[test]
    fn if_else_diamonds() {
        let cfg =
            cfg_of("int main() { int x = 1; if (x > 0) { x = 2; } else { x = 3; } return x; }");
        // entry -> then, else; then -> after; else -> after.
        let entry_succs = &cfg.blocks[cfg.entry].succs;
        assert_eq!(entry_succs.len(), 2);
        let after = cfg.blocks[entry_succs[0]].succs[0];
        assert_eq!(cfg.blocks[entry_succs[1]].succs, vec![after]);
        assert_eq!(cfg.blocks[after].preds.len(), 2);
    }

    #[test]
    fn while_loop_has_back_edge() {
        let cfg = cfg_of("int main() { int n = 3; while (n > 0) { n = n - 1; } return n; }");
        let rpo = cfg.rpo();
        let pos: HashMap<BlockId, usize> = rpo.iter().enumerate().map(|(i, &b)| (b, i)).collect();
        let reach = cfg.reachable();
        let mut back = 0;
        for (id, b) in cfg.blocks.iter().enumerate() {
            if !reach[id] {
                continue;
            }
            for &s in &b.succs {
                if pos[&s] <= pos[&id] {
                    back += 1;
                }
            }
        }
        assert_eq!(back, 1, "one back edge for one loop");
    }

    #[test]
    fn break_and_continue_target_the_right_blocks() {
        let cfg = cfg_of(
            "int main() { int s = 0; for (int i = 0; i < 9; i++) { if (i == 2) { continue; } if (i == 5) { break; } s = s + i; } return s; }",
        );
        // Both exits exist and the graph stays connected: every
        // reachable non-exit block has a successor.
        let reach = cfg.reachable();
        for (id, b) in cfg.blocks.iter().enumerate() {
            if reach[id] && id != cfg.exit {
                assert!(!b.succs.is_empty(), "reachable block {id} dead-ends");
            }
        }
    }

    #[test]
    fn cin_chain_defines_all_targets() {
        let cfg = cfg_of(
            "#include <iostream>\nusing namespace std;\nint main() { int a; int b; cin >> a >> b; return a + b; }",
        );
        let read = cfg.blocks[cfg.entry]
            .stmts
            .iter()
            .find(|s| !s.defs.is_empty())
            .expect("read stmt");
        let defined: Vec<&str> = read
            .defs
            .iter()
            .map(|d| cfg.vars[d.var].name.as_str())
            .collect();
        assert_eq!(defined, vec!["a", "b"]);
        assert!(read.defs.iter().all(|d| !d.report_dead));
    }

    #[test]
    fn scanf_addrof_defines() {
        let cfg = cfg_of("#include <cstdio>\nint main() { int n; scanf(\"%d\", &n); return n; }");
        let n = var(&cfg, "n");
        assert!(cfg.vars[n].uninit_at_birth);
        assert!(cfg.vars[n].addr_taken);
        let has_def = cfg.blocks[cfg.entry]
            .stmts
            .iter()
            .any(|s| s.defs.iter().any(|d| d.var == n));
        assert!(has_def, "scanf must define n");
    }

    #[test]
    fn index_write_uses_base_without_defining() {
        let cfg = cfg_of("int main() { int a[10]; int i = 0; a[i] = 5; return a[0]; }");
        let a = var(&cfg, "a");
        assert!(
            !cfg.vars[a].uninit_at_birth,
            "arrays are not uninit-tracked"
        );
        for b in &cfg.blocks {
            for s in &b.stmts {
                assert!(
                    s.defs.iter().all(|d| d.var != a),
                    "array base must never be fully defined"
                );
            }
        }
    }

    #[test]
    fn shadowed_names_get_distinct_var_ids() {
        let cfg =
            cfg_of("int main() { int v = 1; if (v > 0) { int v = 2; v = v + 1; } return v; }");
        let ids: Vec<VarId> = cfg
            .vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.name == "v")
            .map(|(i, _)| i)
            .collect();
        assert_eq!(ids.len(), 2, "{:?}", cfg.vars);
    }

    #[test]
    fn typedef_scalars_are_uninit_tracked() {
        let cfg = cfg_of("typedef long long ll;\nint main() { ll x; x = 4; return (int)x; }");
        let x = var(&cfg, "x");
        assert!(cfg.vars[x].uninit_at_birth);
    }

    #[test]
    fn foreach_header_defines_loop_var() {
        let cfg = cfg_of(
            "#include <vector>\nusing namespace std;\nint main() { vector<int> v; int s = 0; for (int x : v) { s = s + x; } return s; }",
        );
        let x = var(&cfg, "x");
        let defs_x = cfg
            .blocks
            .iter()
            .flat_map(|b| &b.stmts)
            .filter(|s| s.defs.iter().any(|d| d.var == x))
            .count();
        assert_eq!(defs_x, 1);
    }

    #[test]
    fn do_while_body_precedes_cond() {
        let cfg = cfg_of("int main() { int n = 0; do { n = n + 1; } while (n < 3); return n; }");
        // Entry flows into the body, not a condition block.
        let body = cfg.blocks[cfg.entry].succs[0];
        assert!(
            cfg.blocks[body].stmts.iter().any(|s| !s.defs.is_empty()),
            "entry successor must be the body"
        );
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable_blocks() {
        let cfg = cfg_of(
            "int main() { int s = 0; for (int i = 0; i < 4; i++) { if (i % 2 == 0) { s = s + i; } } return s; }",
        );
        let rpo = cfg.rpo();
        assert_eq!(rpo[0], cfg.entry);
        assert_eq!(rpo.len(), cfg.blocks.len());
        let mut sorted = rpo.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), cfg.blocks.len(), "rpo must be a permutation");
    }

    #[test]
    fn sites_match_resolver_conventions() {
        let cfg = cfg_of(
            "int main() { int x = 0; for (int i = 0; i < 3; i++) { x = x + i; } return x; }",
        );
        let sites: Vec<&str> = cfg
            .blocks
            .iter()
            .flat_map(|b| &b.stmts)
            .map(|s| s.site.as_str())
            .collect();
        assert!(sites.contains(&"main/[0]"), "{sites:?}");
        assert!(sites.contains(&"main/[1]/for/init"), "{sites:?}");
        assert!(sites.contains(&"main/[1]/for/body/[0]"), "{sites:?}");
    }
}
