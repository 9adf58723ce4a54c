//! The parser's nesting budget: no source text can abort the process.
//!
//! Every pass over the AST recurses, and a stack overflow aborts the
//! whole process — `catch_unwind` cannot stop it, so one deeply nested
//! `/attribute` body would take down the server and every connection on
//! it. The parser therefore rejects trees nested deeper than
//! `MAX_NESTING` with an ordinary `ParseError`. For each way the subset
//! nests, the deepest source the parser accepts must run the whole
//! frontend on a 2 MiB thread (the default stack of the pool and server
//! workers), and anything deeper must be an error. Shapes mixed at
//! random must obey the same bound.

use synthattr::analysis::{fingerprint, Analyzer};
use synthattr::features::{FeatureConfig, FeatureExtractor};
use synthattr::lang::parse;
use synthattr::lang::parser::MAX_NESTING;
use synthattr::lang::render::{render, RenderStyle};
use synthattr::util::prop::{gen, Runner};
use synthattr::util::prop_assert;

/// A way of nesting: its name, how many levels each repetition adds,
/// and the body of `main` as `[before, open, middle, close, after]`,
/// where `open` and `close` repeat.
type Shape = (&'static str, usize, [&'static str; 5]);

const SHAPES: [Shape; 16] = [
    ("parentheses", 1, ["int x = ", "(", "1", ")", "; return x;"]),
    ("blocks", 1, ["", "{ ", "return 0; ", "} ", ""]),
    (
        "braceless ifs",
        1,
        ["int x = 1; ", "if (x) ", "x = 0;", "", " return x;"],
    ),
    (
        "else-if chain",
        1,
        [
            "int x = 1; if (x) x = 2; ",
            "else if (x) x = 3; ",
            "",
            "",
            "",
        ],
    ),
    (
        "prefix operators",
        1,
        ["int x = ", "!", "1", "", "; return x;"],
    ),
    ("casts", 1, ["int x = ", "(int)", "1", "", "; return x;"]),
    (
        "static casts",
        1,
        ["int x = ", "static_cast<int>(", "1", ")", ";"],
    ),
    (
        "left-assoc operators",
        1,
        ["int x = 1", "", "", " + 1", "; return x;"],
    ),
    (
        "assignments",
        1,
        ["int a = 0; ", "a = ", "0", "", "; return a;"],
    ),
    (
        "ternaries",
        1,
        ["int x = ", "1 ? 1 : ", "1", "", "; return x;"],
    ),
    (
        "subscripts",
        1,
        ["int a[1]; int x = a", "", "", "[0]", "; return x;"],
    ),
    ("calls", 1, ["return f", "", "", "()", ";"]),
    (
        "member accesses",
        1,
        ["string s; int x = s", "", "", ".size", ";"],
    ),
    (
        "initializer lists",
        1,
        ["int x = ", "{", "1", "}", "; return x;"],
    ),
    (
        "template arguments",
        1,
        ["", "vector<", "int", ">", " v; return 0;"],
    ),
    // Each left operand is itself a chain, so the levels of both add up
    // in the tree although the parser never recurses through both.
    (
        "chains in left operands",
        2,
        ["int x = ", "(", "1", " + 1)", "; return x;"],
    ),
];

fn shape_source([before, open, middle, close, after]: [&str; 5], k: usize) -> String {
    let (open, close) = (open.repeat(k), close.repeat(k));
    format!("int main() {{ {before}{open}{middle}{close}{after} }}")
}

/// Runs every frontend stage on `src` on a thread with a 2 MiB stack.
/// A stack overflow aborts the test binary, which fails the test.
fn full_frontend_on_small_stack(name: &'static str, src: String) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let unit = parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            Analyzer::new().analyze(&unit);
            fingerprint(&unit);
            FeatureExtractor::new(FeatureConfig::default())
                .extract(&src)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            render(&unit, &RenderStyle::default());
        })
        .expect("spawn a 2 MiB thread")
        .join()
        .unwrap_or_else(|_| panic!("{name}: frontend failed at the budget"));
}

#[test]
fn nesting_at_the_budget_passes_the_frontend_and_deeper_is_an_error() {
    for (name, per_step, parts) in SHAPES {
        let deepest = (1..=MAX_NESTING + 1)
            .rev()
            .find(|&k| parse(&shape_source(parts, k)).is_ok())
            .unwrap_or_else(|| panic!("{name}: no depth parses"));
        let levels = deepest * per_step;
        // The enclosing function, statement and declaration take the
        // first levels; the repetition gets the rest of the budget.
        assert!(
            (MAX_NESTING - 3..=MAX_NESTING).contains(&levels),
            "{name}: deepest accepted source has {levels} levels, budget is {MAX_NESTING}"
        );
        // One level more, and the depths that used to abort the process.
        for k in [deepest + 1, 100_000 / per_step] {
            let err = parse(&shape_source(parts, k)).expect_err(name);
            assert!(err.to_string().contains("nesting"), "{name} x{k}: {err}");
        }
        full_frontend_on_small_stack(name, shape_source(parts, deepest));
    }
}

/// Ways one expression holds another (`#`), each adding one or two
/// levels.
const EXPR_WRAPS: [&str; 14] = [
    "(#)",
    "!#",
    "(int)(#)",
    "# + 1",
    "1 * #",
    "f(#)",
    "a[#]",
    "a[#][0]",
    "# ? 1 : 1",
    "1 ? # : 1",
    "{#}",
    "static_cast<int>(#)",
    "x = #",
    "(#).size",
];

/// Ways one statement holds another (`#`), each adding one level.
const STMT_WRAPS: [&str; 5] = [
    "{ # }",
    "if (x) #",
    "while (x) #",
    "for (;;) #",
    "if (x) x = 1; else #",
];

/// A program whose one statement nests the expression wraps of `wraps`
/// (innermost first) inside its statement wraps.
fn mixed_source(wraps: &[&str]) -> String {
    let mut expr = "1".to_string();
    for w in wraps.iter().filter(|w| EXPR_WRAPS.contains(w)) {
        expr = w.replace('#', &expr);
    }
    let mut stmt = format!("x = {expr};");
    for w in wraps.iter().filter(|w| STMT_WRAPS.contains(w)) {
        stmt = w.replace('#', &stmt);
    }
    format!("int main() {{ int x = 1; int a[1]; {stmt} return x; }}")
}

/// Shapes interleaved at random: whatever the parser accepts runs the
/// whole frontend on a 2 MiB thread, and it rejects only sources that
/// could be over the budget (each wrap adds at most two levels, the
/// statement in `main` two more).
#[test]
fn mixed_nesting_is_accepted_only_within_the_budget() {
    let all: Vec<&str> = EXPR_WRAPS.iter().chain(&STMT_WRAPS).copied().collect();
    Runner::new("mixed_nesting_is_accepted_only_within_the_budget")
        .cases(64)
        .run(
            |rng| gen::vec_of(rng, MAX_NESTING + 40, |r| gen::select(r, &all)),
            |wraps| {
                let src = mixed_source(wraps);
                match parse(&src) {
                    Ok(_) => full_frontend_on_small_stack("mixed", src),
                    Err(e) => {
                        prop_assert!(e.to_string().contains("nesting"), "{e}");
                        let most = 2 * wraps.len() + 2;
                        prop_assert!(most > MAX_NESTING, "{most} levels at most, rejected: {e}");
                    }
                }
                Ok(())
            },
        );
}
