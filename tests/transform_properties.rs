//! Property-based integration tests over the generator → transformer →
//! frontend loop: for arbitrary author styles and seeds, generated
//! programs parse, survive re-rendering, and keep their behavioural
//! skeleton through LLM-style transformation.
//!
//! Driven by the in-repo harness (`synthattr::util::prop`) — see
//! DESIGN.md's hermetic zero-dependency policy.

use std::collections::{BTreeMap, HashMap, HashSet};
use synthattr::analysis::{fingerprint_source, new_errors, Analyzer};
use synthattr::features::collect::CodeStats;
use synthattr::gen::challenges::ChallengeId;
use synthattr::gen::corpus::Origin;
use synthattr::gen::style::AuthorStyle;
use synthattr::gpt::chain::{run_ct, run_nct};
use synthattr::gpt::pool::YearPool;
use synthattr::gpt::transform::Transformer;
use synthattr::lang::ast::{Block, Expr, Item, NodeKind, Stmt};
use synthattr::lang::parse;
use synthattr::lang::render::{render, RenderStyle};
use synthattr::lang::visit::{
    for_each_block_mut, for_each_expr_in, for_each_expr_mut, for_each_stmt, for_each_subexpr,
    walk_unit, Visitor,
};
use synthattr::util::prop::Runner;
use synthattr::util::Pcg64;
use synthattr_util::{prop_assert, prop_assert_eq};

/// Generates `(challenge, extra seeds...)` as shrinkable primitives;
/// the challenge is picked by index into [`ChallengeId::all`].
fn challenge(idx: usize) -> ChallengeId {
    let all = ChallengeId::all();
    all[idx % all.len()]
}

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
/// expressions `walk_unit` reports, with the same count per kind, and
/// the statement and block walkers reach every statement and block
/// once.
fn assert_walkers_match_walk_unit(source: &str) {
    let mut unit = parse(source).expect("source parses");
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
        "shared expression walker\n{source}"
    );
    assert_eq!(
        tally(&reported.exprs, &exprs_mut),
        expr_table,
        "mutable expression walker\n{source}"
    );
    let all_stmts: Vec<_> = reported.stmts.keys().copied().collect();
    let stmt_table = tally(&reported.stmts, &all_stmts);
    assert_eq!(
        tally(&reported.stmts, &stmts),
        stmt_table,
        "statement walker\n{source}"
    );
    blocks.sort();
    blocks.dedup();
    assert_eq!(blocks.len(), reported.blocks, "block walker\n{source}");
}

/// Every (style, challenge, seed) combination yields parseable
/// code whose re-rendered form parses to the same tree shape.
#[test]
fn generated_code_roundtrips() {
    Runner::new("generated_code_roundtrips").cases(48).run(
        |rng| {
            (
                rng.next_below(5000) as u64,
                rng.next_below(5000) as u64,
                rng.next_below(ChallengeId::all().len()),
            )
        },
        |&(style_seed, file_seed, ch_idx)| {
            let mut rng = Pcg64::new(style_seed);
            let style = AuthorStyle::sample(&mut rng);
            let src = challenge(ch_idx).render_solution(&style, Pcg64::new(file_seed));
            let unit = parse(&src).expect("generated code parses");
            let re = render(&unit, &RenderStyle::default());
            let unit2 = parse(&re).expect("re-rendered code parses");
            prop_assert_eq!(unit.shape_hash(), unit2.shape_hash());
            Ok(())
        },
    );
}

/// Transformation preserves the program's *behavioural skeleton*:
/// it still reads input, still prints the GCJ case banner, and
/// keeps the loop count within one structural rewrite of the
/// original (for/while conversion and helper extraction never
/// add or remove iteration logic).
#[test]
fn transformation_preserves_skeleton() {
    Runner::new("transformation_preserves_skeleton")
        .cases(48)
        .run(
            |rng| {
                (
                    rng.next_below(2000) as u64,
                    rng.next_below(2000) as u64,
                    rng.next_below(ChallengeId::all().len()),
                )
            },
            |&(style_seed, t_seed, ch_idx)| {
                let mut rng = Pcg64::new(style_seed);
                let style = AuthorStyle::sample(&mut rng);
                let src =
                    challenge(ch_idx).render_solution(&style, Pcg64::new(style_seed ^ 0xABCD));
                let pool = YearPool::calibrated(2018, 99);
                let gpt = Transformer::new(&pool);
                let mut t_rng = Pcg64::new(t_seed);
                let idx = pool.sample_index(&mut t_rng);
                let out = gpt.transform(&src, idx, &mut t_rng).expect("transforms");

                let before = CodeStats::collect(&parse(&src).unwrap());
                let after = CodeStats::collect(&parse(&out).unwrap());

                // IO protocol survives.
                prop_assert!(out.contains("Case #"), "banner lost:\n{}", out);
                let reads_before = before.stream_io_count + before.stdio_count;
                let reads_after = after.stream_io_count + after.stdio_count;
                prop_assert!(reads_after > 0, "all IO lost:\n{}", out);
                // IO statement count is stable (conversion maps 1:1; merged
                // reads stay merged).
                prop_assert_eq!(reads_before, reads_after, "IO count changed:\n{}", out);
                // Iteration structure is stable.
                prop_assert_eq!(
                    before.loop_count(),
                    after.loop_count(),
                    "loops changed:\n{}",
                    out
                );
                // Conditionals may be restyled but never invented from nothing:
                // ternary + if total is preserved.
                prop_assert_eq!(
                    before.if_count + before.ternary_count,
                    after.if_count + after.ternary_count,
                    "branching changed:\n{}",
                    out
                );
                Ok(())
            },
        );
}

/// Every transform output is analyzer-clean (no new error-severity
/// diagnostics over the seed) and keeps the seed's semantic
/// fingerprint — for arbitrary styles, challenges, and RNG streams.
#[test]
fn transforms_are_analyzer_clean_and_fingerprint_stable() {
    let analyzer = Analyzer::new();
    Runner::new("transforms_are_analyzer_clean_and_fingerprint_stable")
        .cases(48)
        .run(
            |rng| {
                (
                    rng.next_below(2000) as u64,
                    rng.next_below(2000) as u64,
                    rng.next_below(ChallengeId::all().len()),
                )
            },
            |&(style_seed, t_seed, ch_idx)| {
                let mut rng = Pcg64::new(style_seed);
                let style = AuthorStyle::sample(&mut rng);
                let src =
                    challenge(ch_idx).render_solution(&style, Pcg64::new(style_seed ^ 0x5EED));
                let pool = YearPool::calibrated(2017, 3);
                let gpt = Transformer::new(&pool);
                let mut t_rng = Pcg64::new(t_seed);
                let idx = pool.sample_index(&mut t_rng);
                let out = gpt.transform(&src, idx, &mut t_rng).expect("transforms");

                let pre = analyzer.analyze_source(&src).expect("seed parses");
                let post = analyzer.analyze_source(&out).expect("output parses");
                let fresh = new_errors(&pre, &post);
                prop_assert!(
                    fresh.is_empty(),
                    "new error diagnostics {:?}:\n{}",
                    fresh,
                    out
                );
                prop_assert_eq!(
                    fingerprint_source(&src).unwrap(),
                    fingerprint_source(&out).unwrap(),
                    "fingerprint drifted:\n--- seed ---\n{}\n--- out ---\n{}",
                    src,
                    out
                );
                Ok(())
            },
        );
}

/// Programs whose `for` header meets a rewrite that the fingerprint
/// undoes: a zero-parameter helper called once from the init, the
/// condition or the step (helper inlining), and a multi-declarator
/// init (declaration splitting). Each keeps its fingerprint through
/// 400 seeded transforms, whichever of them convert the loop to its
/// `while` form.
#[test]
fn for_header_programs_keep_their_fingerprint() {
    let helper =
        "#include <iostream>\nusing namespace std;\nint solve() { int n; cin >> n; return n; }\n";
    let programs = [
        "for (int r = solve(); r > 0; r--) { s += r; }",
        "for (int i = 0; i < solve(); i++) { s += i; }",
        "for (int i = 0; i < 9; i += solve()) { s += i; }",
    ]
    .map(|lp| format!("{helper}int main() {{ int s = 0; {lp} cout << s << endl; return 0; }}"))
    .into_iter()
    .chain([
        "#include <iostream>\nusing namespace std;\nint main() { int n; cin >> n; int s = 0; for (int i = 0, j = n; i < j; i++) { s += j - i; } cout << s << endl; return 0; }".to_string(),
    ]);
    assert_fingerprint_holds(programs, &[2018]);
}

/// Programs that lower more than one range-`for` in one transform:
/// two sibling loops, and two nested ones. Each lowered loop must get
/// its own index name, so each keeps its fingerprint through 400
/// seeded transforms in every year's pool.
#[test]
fn range_for_programs_keep_their_fingerprint() {
    let programs = [
        "vector<int> a; string s; int t = 0; for (int x : a) { t += x; } for (char c : s) { t += c; }",
        "vector<int> a; vector<int> b; int t = 0; for (int x : a) { for (int y : b) { t += x * y; } }",
    ]
    .map(|body| {
        format!(
            "#include <iostream>\n#include <string>\n#include <vector>\nusing namespace std;\n\
             int main() {{ {body} cout << t << endl; return 0; }}"
        )
    });
    assert_fingerprint_holds(programs, &[2017, 2018, 2019]);
}

/// Transforms each program with seeds 0–399 in each year's pool and
/// checks that every output keeps the program's fingerprint.
fn assert_fingerprint_holds(programs: impl IntoIterator<Item = String>, years: &[u32]) {
    let pools: Vec<YearPool> = years
        .iter()
        .map(|&year| YearPool::calibrated(year, 3))
        .collect();
    for src in programs {
        let fp = fingerprint_source(&src).expect("program parses");
        for pool in &pools {
            let gpt = Transformer::new(pool);
            for seed in 0..400 {
                let mut rng = Pcg64::new(seed);
                let idx = pool.sample_index(&mut rng);
                let out = gpt.transform(&src, idx, &mut rng).expect("transforms");
                assert_eq!(
                    fingerprint_source(&out).expect("output parses"),
                    fp,
                    "{} seed {seed}\n--- program ---\n{src}\n--- out ---\n{out}",
                    pool.year
                );
            }
        }
    }
}

/// The acceptance invariant in its strongest form: for every pool
/// seed (each challenge, rendered in a pool style), both the NCT fan
/// and a full 50-step CT chain stay analyzer-clean and keep the
/// seed's semantic fingerprint at every step. The seed and every step
/// also check the shared AST walkers against `walk_unit`.
#[test]
fn every_pool_seed_survives_a_50_step_chain() {
    let analyzer = Analyzer::new();
    for (ci, &ch) in ChallengeId::all().iter().enumerate() {
        let year = [2017u32, 2018, 2019][ci % 3];
        let pool = YearPool::calibrated(year, 11);
        let gpt = Transformer::new(&pool);
        let seed_src = ch.render_solution(
            &pool.style(ci % pool.styles.len()).clone(),
            Pcg64::new(1000 + ci as u64),
        );
        let seed_fp = fingerprint_source(&seed_src).expect("seed fingerprints");
        let pre = analyzer.analyze_source(&seed_src).expect("seed parses");
        assert_walkers_match_walk_unit(&seed_src);

        let mut rng = Pcg64::seed_from(42, &["prop-ct", &ci.to_string()]);
        let ct = run_ct(&gpt, &seed_src, 50, Origin::ChatGpt, &mut rng);
        assert_eq!(ct.len(), 50);
        let mut rng = Pcg64::seed_from(42, &["prop-nct", &ci.to_string()]);
        let nct = run_nct(&gpt, &seed_src, 10, Origin::ChatGpt, &mut rng);

        for s in ct.iter().chain(nct.iter()) {
            let post = analyzer.analyze_source(&s.source).expect("step parses");
            let fresh = new_errors(&pre, &post);
            assert!(
                fresh.is_empty(),
                "{ch:?} {:?} step {}: new errors {fresh:?}\n{}",
                s.mode,
                s.step,
                s.source
            );
            assert_eq!(
                fingerprint_source(&s.source).unwrap(),
                seed_fp,
                "{ch:?} {:?} step {} drifted\n--- seed ---\n{seed_src}\n--- step ---\n{}",
                s.mode,
                s.step,
                s.source
            );
            assert_walkers_match_walk_unit(&s.source);
        }
    }
}

/// Chained transformation outputs always stay inside the subset.
#[test]
fn chains_never_leave_the_subset() {
    Runner::new("chains_never_leave_the_subset").cases(48).run(
        |rng| rng.next_below(300) as u64,
        |&seed| {
            let mut rng = Pcg64::new(seed);
            let style = AuthorStyle::sample(&mut rng);
            let src = ChallengeId::Gcd.render_solution(&style, Pcg64::new(seed));
            let pool = YearPool::calibrated(2019, 7);
            let gpt = Transformer::new(&pool);
            let mut current = src;
            let mut c_rng = Pcg64::new(seed ^ 0xFFFF);
            for _ in 0..4 {
                let idx = pool.sample_index(&mut c_rng);
                current = gpt
                    .transform(&current, idx, &mut c_rng)
                    .expect("chain step");
                parse(&current).expect("chain output parses");
            }
            Ok(())
        },
    );
}
