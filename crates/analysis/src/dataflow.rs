//! Generic worklist fixed-point dataflow over [`crate::cfg`], and the
//! four analyses the lint passes and feature extractor consume.
//!
//! The framework is the classic iterative scheme: an [`Analysis`]
//! names its [`Direction`], a boundary fact (function entry for
//! forward analyses, the synthetic exit for backward ones), an
//! optimistic initial fact for every other block, a lattice `join`,
//! and a per-block `transfer`. [`solve`] sweeps the blocks in reverse
//! post-order (post-order for backward analyses) until no fact
//! changes. Sweeping a fixed, deterministic order — rather than
//! popping from a hashed worklist — costs a handful of redundant
//! transfers on these tiny graphs and buys bit-identical results on
//! every run, which the golden-grid and worker-invariance suites
//! assert.
//!
//! Instantiations:
//!
//! * [`ReachingDefs`] — forward, may (union): which definitions reach
//!   each block; powers the def-use chain features.
//! * [`Liveness`] — backward, may (union): which variables are read
//!   before redefinition; powers dead-store detection and the
//!   live-range features.
//! * [`DefiniteUninit`] — forward, must (intersection): which
//!   born-uninitialized variables have been assigned on *no* path.
//!   A read of such a variable is the `use-before-init` error; the
//!   must-formulation keeps "assigned on one branch only" patterns —
//!   which semantics-preserving transforms rearrange freely — out of
//!   the error set.
//! * [`ConstProp`] — forward, flat lattice per variable: which
//!   variables hold a known compile-time constant; powers the
//!   constant-foldable fraction feature.

use crate::cfg::{BlockId, CExpr, Cfg, CfgStmt, VarId};
use synthattr_lang::ast::{BinaryOp, UnaryOp};

// ---------------------------------------------------------------------------
// Bit sets
// ---------------------------------------------------------------------------

/// A fixed-capacity bit set over `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set with capacity for `n` elements.
    pub fn new(n: usize) -> Self {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// A set containing every element in `[0, n)`.
    pub fn full(n: usize) -> Self {
        let mut s = Self::new(n);
        for i in 0..n {
            s.insert(i);
        }
        s
    }

    /// Adds `i`.
    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes `i`.
    pub fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// `self |= other`; returns whether `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | *b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// `self &= other`; returns whether `self` changed.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a & *b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Iterates the elements in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64).filter_map(move |b| {
                if w >> b & 1 == 1 {
                    Some(wi * 64 + b)
                } else {
                    None
                }
            })
        })
    }
}

// ---------------------------------------------------------------------------
// The framework
// ---------------------------------------------------------------------------

/// Which way facts flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from predecessors to successors.
    Forward,
    /// Facts flow from successors to predecessors.
    Backward,
}

/// One dataflow analysis: a lattice of facts, a boundary condition,
/// and a block transfer function.
pub trait Analysis {
    /// The lattice element attached to each block edge.
    type Fact: Clone + PartialEq;

    /// Flow direction.
    fn direction(&self) -> Direction;

    /// The fact at the boundary block (entry for forward, exit for
    /// backward).
    fn boundary(&self, cfg: &Cfg) -> Self::Fact;

    /// The optimistic initial fact for every non-boundary block.
    fn init(&self, cfg: &Cfg) -> Self::Fact;

    /// Joins `from` into `into`; returns whether `into` changed.
    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool;

    /// Applies block `b`'s statements to `fact`, producing the
    /// outgoing fact.
    fn transfer(&self, cfg: &Cfg, b: BlockId, fact: &Self::Fact) -> Self::Fact;
}

/// Per-block input and output facts at the fixed point.
#[derive(Debug, Clone)]
pub struct Solution<F> {
    /// Fact entering each block (in flow direction).
    pub inputs: Vec<F>,
    /// Fact leaving each block (in flow direction).
    pub outputs: Vec<F>,
}

/// Runs `analysis` to its fixed point over `cfg`.
///
/// Iteration order is the CFG's reverse post-order for forward
/// analyses and its reverse (post-order) for backward ones — the
/// orders that converge in one or two sweeps on reducible graphs —
/// repeated until a full sweep changes nothing.
pub fn solve<A: Analysis>(analysis: &A, cfg: &Cfg) -> Solution<A::Fact> {
    let n = cfg.blocks.len();
    let mut order = cfg.rpo();
    let dir = analysis.direction();
    if dir == Direction::Backward {
        order.reverse();
    }
    let boundary_block = match dir {
        Direction::Forward => cfg.entry,
        Direction::Backward => cfg.exit,
    };
    let init = analysis.init(cfg);
    let mut inputs: Vec<A::Fact> = vec![init.clone(); n];
    let mut outputs: Vec<A::Fact> = vec![init; n];
    inputs[boundary_block] = analysis.boundary(cfg);
    outputs[boundary_block] = analysis.transfer(cfg, boundary_block, &inputs[boundary_block]);

    loop {
        let mut changed = false;
        for &b in &order {
            if b != boundary_block {
                let mut acc: Option<A::Fact> = None;
                let feeders: &[BlockId] = match dir {
                    Direction::Forward => &cfg.blocks[b].preds,
                    Direction::Backward => &cfg.blocks[b].succs,
                };
                for &f in feeders {
                    match &mut acc {
                        None => acc = Some(outputs[f].clone()),
                        Some(a) => {
                            analysis.join(a, &outputs[f]);
                        }
                    }
                }
                if let Some(a) = acc {
                    if inputs[b] != a {
                        inputs[b] = a;
                        changed = true;
                    }
                }
            }
            let out = analysis.transfer(cfg, b, &inputs[b]);
            if outputs[b] != out {
                outputs[b] = out;
                changed = true;
            }
        }
        if !changed {
            return Solution { inputs, outputs };
        }
    }
}

// ---------------------------------------------------------------------------
// Definition numbering (shared by reaching definitions and the
// def-use chain features)
// ---------------------------------------------------------------------------

/// A numbering of every definition in a CFG. Ids `0..vars` are the
/// synthetic birth definitions (one per variable, standing for "the
/// value the variable holds before any real assignment"); real
/// definitions follow in block/statement/def order.
#[derive(Debug, Clone)]
pub struct DefMap {
    /// Variable each definition id defines.
    pub def_var: Vec<VarId>,
    /// For every real definition: `(block, stmt index, def index)`.
    /// Indexed by `def id - vars`.
    pub real_site: Vec<(BlockId, usize, usize)>,
    /// Number of tracked variables (= number of synthetic defs).
    pub vars: usize,
    /// `per_stmt[block][stmt]` lists the def ids that statement
    /// produces, in def order.
    pub per_stmt: Vec<Vec<Vec<usize>>>,
}

impl DefMap {
    /// Numbers all definitions of `cfg`.
    pub fn build(cfg: &Cfg) -> Self {
        let vars = cfg.vars.len();
        let mut def_var: Vec<VarId> = (0..vars).collect();
        let mut real_site = Vec::new();
        let mut per_stmt = Vec::with_capacity(cfg.blocks.len());
        for (bi, block) in cfg.blocks.iter().enumerate() {
            let mut stmt_ids = Vec::with_capacity(block.stmts.len());
            for (si, stmt) in block.stmts.iter().enumerate() {
                let mut ids = Vec::with_capacity(stmt.defs.len());
                for (di, d) in stmt.defs.iter().enumerate() {
                    ids.push(def_var.len());
                    def_var.push(d.var);
                    real_site.push((bi, si, di));
                }
                stmt_ids.push(ids);
            }
            per_stmt.push(stmt_ids);
        }
        DefMap {
            def_var,
            real_site,
            vars,
            per_stmt,
        }
    }

    /// Total definitions (synthetic + real).
    pub fn len(&self) -> usize {
        self.def_var.len()
    }

    /// Whether there are no definitions at all.
    pub fn is_empty(&self) -> bool {
        self.def_var.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Reaching definitions
// ---------------------------------------------------------------------------

/// Forward may-analysis: the set of definitions that reach a point.
pub struct ReachingDefs<'a> {
    /// The definition numbering facts are expressed in.
    pub defs: &'a DefMap,
}

impl ReachingDefs<'_> {
    /// Applies one statement to a fact: every def of a variable kills
    /// all other defs of that variable, then adds itself.
    pub fn step(&self, fact: &mut BitSet, stmt_defs: &[usize]) {
        for &d in stmt_defs {
            let v = self.defs.def_var[d];
            // Kill every definition of v.
            for (other, &ov) in self.defs.def_var.iter().enumerate() {
                if ov == v {
                    fact.remove(other);
                }
            }
            fact.insert(d);
        }
    }
}

impl Analysis for ReachingDefs<'_> {
    type Fact = BitSet;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self, _cfg: &Cfg) -> BitSet {
        // Every variable's synthetic birth definition reaches entry.
        let mut s = BitSet::new(self.defs.len());
        for v in 0..self.defs.vars {
            s.insert(v);
        }
        s
    }

    fn init(&self, _cfg: &Cfg) -> BitSet {
        BitSet::new(self.defs.len())
    }

    fn join(&self, into: &mut BitSet, from: &BitSet) -> bool {
        into.union_with(from)
    }

    fn transfer(&self, _cfg: &Cfg, b: BlockId, fact: &BitSet) -> BitSet {
        let mut out = fact.clone();
        for ids in &self.defs.per_stmt[b] {
            self.step(&mut out, ids);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Liveness
// ---------------------------------------------------------------------------

/// Backward may-analysis: the set of variables whose current value may
/// still be read.
pub struct Liveness;

impl Liveness {
    /// Applies one statement backwards: defs kill, then uses gen.
    pub fn step(fact: &mut BitSet, stmt: &CfgStmt) {
        for d in &stmt.defs {
            fact.remove(d.var);
        }
        for &u in &stmt.uses {
            fact.insert(u);
        }
    }
}

impl Analysis for Liveness {
    type Fact = BitSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn boundary(&self, cfg: &Cfg) -> BitSet {
        BitSet::new(cfg.vars.len())
    }

    fn init(&self, cfg: &Cfg) -> BitSet {
        BitSet::new(cfg.vars.len())
    }

    fn join(&self, into: &mut BitSet, from: &BitSet) -> bool {
        into.union_with(from)
    }

    fn transfer(&self, cfg: &Cfg, b: BlockId, fact: &BitSet) -> BitSet {
        let mut out = fact.clone();
        for stmt in cfg.blocks[b].stmts.iter().rev() {
            Self::step(&mut out, stmt);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Definitely-uninitialized
// ---------------------------------------------------------------------------

/// Forward must-analysis: variables assigned on *no* path from entry.
pub struct DefiniteUninit;

impl Analysis for DefiniteUninit {
    type Fact = BitSet;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self, cfg: &Cfg) -> BitSet {
        let mut s = BitSet::new(cfg.vars.len());
        for (i, v) in cfg.vars.iter().enumerate() {
            if v.uninit_at_birth {
                s.insert(i);
            }
        }
        s
    }

    fn init(&self, cfg: &Cfg) -> BitSet {
        // Top for intersection: everything still unassigned.
        BitSet::full(cfg.vars.len())
    }

    fn join(&self, into: &mut BitSet, from: &BitSet) -> bool {
        into.intersect_with(from)
    }

    fn transfer(&self, cfg: &Cfg, b: BlockId, fact: &BitSet) -> BitSet {
        let mut out = fact.clone();
        for stmt in &cfg.blocks[b].stmts {
            for d in &stmt.defs {
                out.remove(d.var);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Constant propagation
// ---------------------------------------------------------------------------

/// One variable's place in the flat constant lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flat {
    /// No assignment seen yet (lattice top).
    Top,
    /// Holds this known constant.
    Const(i64),
    /// Not a constant (lattice bottom).
    Nac,
}

impl Flat {
    fn meet(self, other: Flat) -> Flat {
        match (self, other) {
            (Flat::Top, x) | (x, Flat::Top) => x,
            (Flat::Const(a), Flat::Const(b)) if a == b => Flat::Const(a),
            _ => Flat::Nac,
        }
    }
}

/// Forward analysis over the flat constant lattice, one element per
/// tracked variable.
pub struct ConstProp;

impl ConstProp {
    /// Evaluates a lowered expression in `env`.
    pub fn eval(env: &[Flat], e: &CExpr) -> Flat {
        match e {
            CExpr::Const(v) => Flat::Const(*v),
            CExpr::Var(v) => env[*v],
            CExpr::Unary(op, inner) => match Self::eval(env, inner) {
                Flat::Const(v) => match op {
                    UnaryOp::Neg => Flat::Const(v.wrapping_neg()),
                    UnaryOp::Plus => Flat::Const(v),
                    UnaryOp::Not => Flat::Const((v == 0) as i64),
                    UnaryOp::BitNot => Flat::Const(!v),
                    _ => Flat::Nac,
                },
                x => x,
            },
            CExpr::Binary(op, l, r) => match (Self::eval(env, l), Self::eval(env, r)) {
                (Flat::Const(a), Flat::Const(b)) => Self::eval_bin(*op, a, b),
                (Flat::Top, _) | (_, Flat::Top) => Flat::Top,
                _ => Flat::Nac,
            },
            CExpr::Unknown => Flat::Nac,
        }
    }

    fn eval_bin(op: BinaryOp, a: i64, b: i64) -> Flat {
        use BinaryOp::*;
        match op {
            Add => Flat::Const(a.wrapping_add(b)),
            Sub => Flat::Const(a.wrapping_sub(b)),
            Mul => Flat::Const(a.wrapping_mul(b)),
            Div if b != 0 => Flat::Const(a.wrapping_div(b)),
            Mod if b != 0 => Flat::Const(a.wrapping_rem(b)),
            Lt => Flat::Const((a < b) as i64),
            Gt => Flat::Const((a > b) as i64),
            Le => Flat::Const((a <= b) as i64),
            Ge => Flat::Const((a >= b) as i64),
            Eq => Flat::Const((a == b) as i64),
            Ne => Flat::Const((a != b) as i64),
            And => Flat::Const((a != 0 && b != 0) as i64),
            Or => Flat::Const((a != 0 || b != 0) as i64),
            BitAnd => Flat::Const(a & b),
            BitOr => Flat::Const(a | b),
            BitXor => Flat::Const(a ^ b),
            _ => Flat::Nac,
        }
    }

    /// Applies one statement to the environment: the lowered RHS (by
    /// convention the value of the statement's *last* definition, the
    /// assignment target) evaluates first, every other def goes to
    /// not-a-constant.
    pub fn step(env: &mut [Flat], stmt: &CfgStmt) {
        let rhs_val = stmt.rhs.as_ref().map(|r| Self::eval(env, r));
        for (i, d) in stmt.defs.iter().enumerate() {
            let last = i + 1 == stmt.defs.len();
            env[d.var] = match (&rhs_val, last) {
                (Some(v), true) => *v,
                _ => Flat::Nac,
            };
        }
    }
}

impl Analysis for ConstProp {
    type Fact = Vec<Flat>;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self, cfg: &Cfg) -> Vec<Flat> {
        cfg.vars
            .iter()
            .map(|v| {
                if v.uninit_at_birth {
                    Flat::Top
                } else {
                    Flat::Nac
                }
            })
            .collect()
    }

    fn init(&self, cfg: &Cfg) -> Vec<Flat> {
        vec![Flat::Top; cfg.vars.len()]
    }

    fn join(&self, into: &mut Vec<Flat>, from: &Vec<Flat>) -> bool {
        let mut changed = false;
        for (a, b) in into.iter_mut().zip(from) {
            let next = a.meet(*b);
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    fn transfer(&self, cfg: &Cfg, b: BlockId, fact: &Vec<Flat>) -> Vec<Flat> {
        let mut env = fact.clone();
        for stmt in &cfg.blocks[b].stmts {
            Self::step(&mut env, stmt);
        }
        env
    }
}

// ---------------------------------------------------------------------------
// Verdicts: the two lint clients
// ---------------------------------------------------------------------------

/// One dataflow lint finding: `(site, variable name)`.
pub type Finding = (String, String);

/// Reads of definitely-uninitialized variables, in block/statement
/// order. Only reachable blocks are inspected (dead code cannot read
/// anything at run time), and address-taken variables are exempt.
pub fn use_before_init(cfg: &Cfg) -> Vec<Finding> {
    let sol = solve(&DefiniteUninit, cfg);
    let reach = cfg.reachable();
    let mut out = Vec::new();
    let mut reported = BitSet::new(cfg.vars.len());
    for (bi, block) in cfg.blocks.iter().enumerate() {
        if !reach[bi] {
            continue;
        }
        let mut fact = sol.inputs[bi].clone();
        for stmt in &block.stmts {
            for &u in &stmt.uses {
                if fact.contains(u)
                    && cfg.vars[u].uninit_at_birth
                    && !cfg.vars[u].addr_taken
                    && !reported.contains(u)
                {
                    reported.insert(u);
                    out.push((stmt.site.clone(), cfg.vars[u].name.clone()));
                }
            }
            for d in &stmt.defs {
                fact.remove(d.var);
            }
        }
    }
    out
}

/// Stores whose value can never be read, in block/statement order.
/// Only explicit assignments and scalar initializers are eligible
/// (see [`crate::cfg::DefRec::report_dead`]); address-taken variables
/// are exempt because an IO call may read them invisibly.
pub fn dead_stores(cfg: &Cfg) -> Vec<Finding> {
    let sol = solve(&Liveness, cfg);
    let reach = cfg.reachable();
    let mut out = Vec::new();
    for (bi, block) in cfg.blocks.iter().enumerate() {
        if !reach[bi] {
            continue;
        }
        // Walk backwards so each statement sees the liveness *after*
        // itself.
        let mut live = sol.inputs[bi].clone(); // backward input = live-out
        for stmt in block.stmts.iter().rev() {
            for d in &stmt.defs {
                if d.report_dead && !live.contains(d.var) && !cfg.vars[d.var].addr_taken {
                    out.push((stmt.site.clone(), cfg.vars[d.var].name.clone()));
                }
            }
            Liveness::step(&mut live, stmt);
        }
    }
    // Backward block walks discover stores bottom-up; report top-down.
    out.reverse();
    out
}

// ---------------------------------------------------------------------------
// Feature summary
// ---------------------------------------------------------------------------

/// Raw integer dataflow measurements of one function (or a merged
/// set of functions). All fields are sums or maxima, so merging
/// per-function (or per-item) summaries is exact and order-free —
/// the property the incremental frontend's bit-identity proof needs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DataflowSummary {
    /// Function count.
    pub functions: u64,
    /// Basic blocks.
    pub blocks: u64,
    /// CFG edges.
    pub edges: u64,
    /// Edges into an already-visited reverse-post-order position
    /// (loop back edges, on reducible graphs).
    pub back_edges: u64,
    /// Blocks with two or more successors.
    pub branch_blocks: u64,
    /// Flattened statements.
    pub stmts: u64,
    /// Real (non-synthetic) definitions.
    pub defs: u64,
    /// Variable reads.
    pub uses: u64,
    /// Def-use pairs: a definition reaching a read of its variable.
    pub du_edges: u64,
    /// Largest single definition fan-out.
    pub du_max: u64,
    /// Σ over blocks of live-in set size.
    pub live_in_sum: u64,
    /// Largest live-in set.
    pub live_in_max: u64,
    /// Σ over variables of the number of blocks whose live-in set
    /// contains the variable (the block-granular live-range span).
    pub span_sum: u64,
    /// Tracked variables.
    pub vars: u64,
    /// Dead stores found.
    pub dead_stores: u64,
    /// Reads of definitely-uninitialized variables found.
    pub uninit_uses: u64,
    /// Statements with a lowered RHS that constant propagation proved
    /// constant.
    pub const_stmts: u64,
    /// Statements with a lowered RHS.
    pub rhs_stmts: u64,
}

impl DataflowSummary {
    /// Measures one function's CFG with all four analyses.
    pub fn of_cfg(cfg: &Cfg) -> Self {
        let mut s = DataflowSummary {
            functions: 1,
            blocks: cfg.blocks.len() as u64,
            edges: cfg.edge_count() as u64,
            vars: cfg.vars.len() as u64,
            ..DataflowSummary::default()
        };
        let rpo = cfg.rpo();
        let mut pos = vec![0usize; cfg.blocks.len()];
        for (i, &b) in rpo.iter().enumerate() {
            pos[b] = i;
        }
        let reach = cfg.reachable();
        for (bi, block) in cfg.blocks.iter().enumerate() {
            for &succ in &block.succs {
                // Fall-off edges from unreachable trailing blocks land
                // late in RPO; only reachable sources can close loops.
                if reach[bi] && pos[succ] <= pos[bi] {
                    s.back_edges += 1;
                }
            }
            if block.succs.len() >= 2 {
                s.branch_blocks += 1;
            }
            s.stmts += block.stmts.len() as u64;
            for stmt in &block.stmts {
                s.defs += stmt.defs.len() as u64;
                s.uses += stmt.uses.len() as u64;
            }
        }

        // Def-use chains from reaching definitions.
        let defs = DefMap::build(cfg);
        let rd = ReachingDefs { defs: &defs };
        let rd_sol = solve(&rd, cfg);
        let mut fanout = vec![0u64; defs.len()];
        for (bi, block) in cfg.blocks.iter().enumerate() {
            let mut fact = rd_sol.inputs[bi].clone();
            for (si, stmt) in block.stmts.iter().enumerate() {
                for &u in &stmt.uses {
                    for d in fact.iter() {
                        if defs.def_var[d] == u {
                            s.du_edges += 1;
                            fanout[d] += 1;
                        }
                    }
                }
                rd.step(&mut fact, &defs.per_stmt[bi][si]);
            }
        }
        // Only real definitions count toward the fan-out maximum.
        s.du_max = fanout[defs.vars..].iter().copied().max().unwrap_or(0);

        // Liveness: pressure and spans.
        let lv_sol = solve(&Liveness, cfg);
        let mut span = vec![0u64; cfg.vars.len()];
        for bi in 0..cfg.blocks.len() {
            // For a backward analysis `outputs` is the fact leaving in
            // flow direction, i.e. the live-in set.
            let live_in = &lv_sol.outputs[bi];
            let k = live_in.len() as u64;
            s.live_in_sum += k;
            s.live_in_max = s.live_in_max.max(k);
            for v in live_in.iter() {
                span[v] += 1;
            }
        }
        s.span_sum = span.iter().sum();

        // Verdict counts.
        s.dead_stores = dead_stores(cfg).len() as u64;
        s.uninit_uses = use_before_init(cfg).len() as u64;

        // Constant propagation: how much of the function is
        // compile-time computable.
        let cp_sol = solve(&ConstProp, cfg);
        for (bi, block) in cfg.blocks.iter().enumerate() {
            let mut env = cp_sol.inputs[bi].clone();
            for stmt in &block.stmts {
                if let Some(rhs) = &stmt.rhs {
                    s.rhs_stmts += 1;
                    if matches!(ConstProp::eval(&env, rhs), Flat::Const(_)) {
                        s.const_stmts += 1;
                    }
                }
                ConstProp::step(&mut env, stmt);
            }
        }
        s
    }

    /// Merges `other` into `self` (sums and maxima — commutative and
    /// associative, so any merge order gives identical bits).
    pub fn merge(&mut self, other: &DataflowSummary) {
        // Exhaustive destructuring: adding a field without deciding
        // how it merges is a compile error.
        let DataflowSummary {
            functions,
            blocks,
            edges,
            back_edges,
            branch_blocks,
            stmts,
            defs,
            uses,
            du_edges,
            du_max,
            live_in_sum,
            live_in_max,
            span_sum,
            vars,
            dead_stores,
            uninit_uses,
            const_stmts,
            rhs_stmts,
        } = other;
        self.functions += functions;
        self.blocks += blocks;
        self.edges += edges;
        self.back_edges += back_edges;
        self.branch_blocks += branch_blocks;
        self.stmts += stmts;
        self.defs += defs;
        self.uses += uses;
        self.du_edges += du_edges;
        self.du_max = self.du_max.max(*du_max);
        self.live_in_sum += live_in_sum;
        self.live_in_max = self.live_in_max.max(*live_in_max);
        self.span_sum += span_sum;
        self.vars += vars;
        self.dead_stores += dead_stores;
        self.uninit_uses += uninit_uses;
        self.const_stmts += const_stmts;
        self.rhs_stmts += rhs_stmts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthattr_lang::parse;

    fn cfg_of(src: &str) -> Cfg {
        let unit = parse(src).expect("test source parses");
        Cfg::build_all(&unit).remove(0)
    }

    #[test]
    fn bitset_ops() {
        let mut a = BitSet::new(130);
        a.insert(0);
        a.insert(64);
        a.insert(129);
        assert_eq!(a.len(), 3);
        assert!(a.contains(64));
        let mut b = BitSet::new(130);
        b.insert(64);
        assert!(b.union_with(&a), "union adds elements");
        assert_eq!(b.len(), 3);
        b.remove(0);
        b.remove(129);
        let mut c = a.clone();
        assert!(c.intersect_with(&b));
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![64]);
        assert!(!c.is_empty());
    }

    #[test]
    fn uninit_read_on_all_paths_is_flagged() {
        let cfg = cfg_of("int main() { int x; return x; }");
        let f = use_before_init(&cfg);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].1, "x");
        assert_eq!(f[0].0, "main/[1]");
    }

    #[test]
    fn branch_assigned_var_is_not_flagged() {
        // One branch assigns: a *may*-uninit read, deliberately not an
        // error (semantics-preserving transforms rearrange branches).
        let cfg = cfg_of("int main() { int x; int c = 1; if (c > 0) { x = 1; } return x; }");
        assert!(use_before_init(&cfg).is_empty());
    }

    #[test]
    fn both_branches_assigning_clears_the_verdict() {
        let cfg = cfg_of(
            "int main() { int x; int c = 1; if (c > 0) { x = 1; } else { x = 2; } return x; }",
        );
        assert!(use_before_init(&cfg).is_empty());
    }

    #[test]
    fn cin_read_initializes() {
        let cfg = cfg_of(
            "#include <iostream>\nusing namespace std;\nint main() { int n; cin >> n; return n; }",
        );
        assert!(use_before_init(&cfg).is_empty());
    }

    #[test]
    fn loop_conditional_assignment_is_not_flagged() {
        let cfg = cfg_of(
            "int main() { int x; int n = 3; while (n > 0) { x = n; n = n - 1; } return x; }",
        );
        // `while` may run zero times, but may-uninit is not reported.
        assert!(use_before_init(&cfg).is_empty());
    }

    #[test]
    fn self_increment_of_uninit_is_flagged() {
        let cfg = cfg_of("int main() { int x; x = x + 1; return x; }");
        let f = use_before_init(&cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].0, "main/[1]");
    }

    #[test]
    fn dead_store_between_two_assignments() {
        let cfg = cfg_of("int main() { int x = 1; x = 2; return x; }");
        let f = dead_stores(&cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].0, "main/[0]");
        assert_eq!(f[0].1, "x");
    }

    #[test]
    fn loop_carried_value_is_live() {
        let cfg = cfg_of(
            "int main() { int s = 0; for (int i = 0; i < 4; i++) { s = s + i; } return s; }",
        );
        assert!(dead_stores(&cfg).is_empty(), "{:?}", dead_stores(&cfg));
    }

    #[test]
    fn store_never_read_is_dead() {
        let cfg = cfg_of("int main() { int x = 1; int y = 2; x = y; return y; }");
        let f = dead_stores(&cfg);
        // Both stores to x are dead (x is never read).
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|(_, n)| n == "x"));
    }

    #[test]
    fn io_reads_are_not_dead_stores() {
        let cfg = cfg_of(
            "#include <iostream>\nusing namespace std;\nint main() { int waste; cin >> waste; return 0; }",
        );
        assert!(dead_stores(&cfg).is_empty());
    }

    #[test]
    fn const_prop_folds_through_branches_that_agree() {
        let cfg = cfg_of("int main() { int a = 2; int b = a * 3; int c = b + a; return c; }");
        let s = DataflowSummary::of_cfg(&cfg);
        assert_eq!(s.rhs_stmts, 3);
        assert_eq!(s.const_stmts, 3, "{s:?}");
    }

    #[test]
    fn const_prop_meets_to_nac_on_disagreement() {
        let cfg = cfg_of(
            "int main() { int c = 1; int x = 0; if (c > 0) { x = 1; } else { x = 2; } int y = x + 1; return y; }",
        );
        let sol = solve(&ConstProp, &cfg);
        let x = cfg.vars.iter().position(|v| v.name == "x").unwrap();
        // At exit, x met 1 and 2.
        assert_eq!(sol.inputs[cfg.exit][x], Flat::Nac);
    }

    #[test]
    fn reaching_defs_count_du_edges() {
        let cfg = cfg_of("int main() { int a = 1; int b = a + a; return b; }");
        let s = DataflowSummary::of_cfg(&cfg);
        // a's def reaches two reads; b's def reaches one.
        assert_eq!(s.du_edges, 3);
        assert_eq!(s.du_max, 2);
    }

    #[test]
    fn liveness_spans_and_pressure_are_positive() {
        let cfg = cfg_of(
            "int main() { int s = 0; for (int i = 0; i < 9; i++) { s = s + i; } return s; }",
        );
        let s = DataflowSummary::of_cfg(&cfg);
        assert!(s.live_in_sum > 0);
        assert!(s.live_in_max >= 2, "{s:?}"); // s and i live in the loop
        assert!(s.span_sum >= s.live_in_max);
    }

    #[test]
    fn summary_merge_is_commutative_and_exhaustive() {
        let a = DataflowSummary::of_cfg(&cfg_of("int main() { int x = 1; return x; }"));
        let b = DataflowSummary::of_cfg(&cfg_of(
            "int helper(int k) { return k * 2; }\nint main() { return helper(3); }",
        ));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.functions, a.functions + b.functions);
    }

    #[test]
    fn solver_is_deterministic() {
        let src = "int main() { int s = 0; int p = 1; for (int i = 1; i < 9; i++) { if (i % 2 == 0) { s = s + i; } else { p = p * i; } } return s + p; }";
        let a = DataflowSummary::of_cfg(&cfg_of(src));
        for _ in 0..5 {
            assert_eq!(a, DataflowSummary::of_cfg(&cfg_of(src)));
        }
    }

    #[test]
    fn do_while_first_iteration_assignment_initializes() {
        let cfg = cfg_of(
            "int main() { int x; int n = 3; do { x = n; n = n - 1; } while (n > 0); return x; }",
        );
        // The do-while body runs at least once, so x is assigned on
        // every path to the return.
        assert!(use_before_init(&cfg).is_empty());
    }
}
