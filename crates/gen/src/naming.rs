//! Concept-based identifier synthesis.
//!
//! Challenge templates request names by *semantic concept* ("the test
//! case counter", "the accumulator"); the [`Namer`] renders each
//! concept in the author's naming convention, consistently within a
//! file, without colliding with names already handed out.

use std::collections::HashMap;
use synthattr_lang::token::is_reserved_name;
use synthattr_util::Pcg64;

/// Identifier casing convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Case {
    /// `numCases`
    Camel,
    /// `NumCases`
    Pascal,
    /// `num_cases`
    Snake,
    /// `numcases`
    Flat,
}

/// How verbose the author's names are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verbosity {
    /// Single letters / terse abbreviations (`t`, `tc`).
    Short,
    /// One or two words (`nCase`, `num_cases`).
    Medium,
    /// Fully spelled out (`numberOfTestCases`).
    Long,
}

/// A complete naming convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NamingStyle {
    /// Casing for multi-word names.
    pub case_style: Case,
    /// Synonym-set tier.
    pub verbosity: Verbosity,
    /// Author-stable rotation applied to every synonym draw: two
    /// authors with the same case and verbosity but different flavors
    /// still pick different words for the same concepts. Widens the
    /// naming space 4x for large-population separability.
    pub flavor: u8,
}

impl NamingStyle {
    /// Samples a naming style.
    ///
    /// `flavor` stays 0 here: [`crate::style::AuthorStyle::sample`]
    /// draws it at the end of the profile so pre-existing seeded
    /// corpora keep their original case/verbosity assignments.
    pub fn sample(rng: &mut Pcg64) -> Self {
        let case_style = match rng.choose_weighted(&[4.0, 1.0, 3.0, 1.5]) {
            0 => Case::Camel,
            1 => Case::Pascal,
            2 => Case::Snake,
            _ => Case::Flat,
        };
        let verbosity = match rng.choose_weighted(&[3.0, 4.0, 1.5]) {
            0 => Verbosity::Short,
            1 => Verbosity::Medium,
            _ => Verbosity::Long,
        };
        NamingStyle {
            case_style,
            verbosity,
            flavor: 0,
        }
    }
}

/// Renders a word sequence in a casing convention.
pub fn apply_case(words: &[&str], case: Case) -> String {
    let cap = |w: &str| {
        let mut c = w.chars();
        match c.next() {
            Some(first) => first.to_ascii_uppercase().to_string() + c.as_str(),
            None => String::new(),
        }
    };
    match case {
        Case::Camel => {
            let mut out = String::new();
            for (i, w) in words.iter().enumerate() {
                if i == 0 {
                    out.push_str(&w.to_ascii_lowercase());
                } else {
                    out.push_str(&cap(w));
                }
            }
            out
        }
        Case::Pascal => words.iter().map(|w| cap(w)).collect(),
        Case::Snake => words
            .iter()
            .map(|w| w.to_ascii_lowercase())
            .collect::<Vec<_>>()
            .join("_"),
        Case::Flat => words
            .iter()
            .map(|w| w.to_ascii_lowercase())
            .collect::<Vec<_>>()
            .join(""),
    }
}

/// Short / medium / long candidate spellings for one concept.
struct Synonyms {
    short: &'static [&'static str],
    medium: &'static [&'static [&'static str]],
    long: &'static [&'static [&'static str]],
}

fn synonyms(concept: &str) -> Synonyms {
    macro_rules! syn {
        ([$($s:expr),*], [$([$($m:expr),*]),*], [$([$($l:expr),*]),*]) => {
            Synonyms {
                short: &[$($s),*],
                medium: &[$(&[$($m),*]),*],
                long: &[$(&[$($l),*]),*],
            }
        };
    }
    match concept {
        "num_cases" => syn!(
            ["t", "tc", "q"],
            [["n", "case"], ["num", "cases"], ["cases"], ["n", "tests"]],
            [
                ["number", "of", "cases"],
                ["total", "test", "cases"],
                ["num", "test", "cases"]
            ]
        ),
        "case_index" => syn!(
            ["i", "tt", "cs"],
            [["i", "case"], ["case", "num"], ["test"], ["case", "id"]],
            [
                ["case", "number"],
                ["current", "test", "case"],
                ["test", "case", "index"]
            ]
        ),
        "loop_index" => syn!(
            ["i", "j", "k"],
            [["i"], ["idx"], ["pos"]],
            [["index"], ["iter", "index"], ["position"]]
        ),
        "loop_index2" => syn!(
            ["j", "k", "p"],
            [["j"], ["jdx"], ["inner"]],
            [
                ["inner", "index"],
                ["second", "index"],
                ["other", "position"]
            ]
        ),
        "loop_index3" => syn!(
            ["p", "u", "a"],
            [["p"], ["first"], ["outer"]],
            [["first", "index"], ["outer", "position"], ["scan", "index"]]
        ),
        "count" => syn!(
            ["c", "cnt", "k"],
            [["count"], ["cnt"], ["num", "found"]],
            [
                ["total", "count"],
                ["matching", "count"],
                ["found", "count"]
            ]
        ),
        "sum" => syn!(
            ["s", "sm", "acc"],
            [["sum"], ["total"], ["acc"]],
            [
                ["running", "total"],
                ["overall", "sum"],
                ["accumulated", "value"]
            ]
        ),
        "answer" => syn!(
            ["r", "res", "ans"],
            [["ans"], ["result"], ["answer"], ["out"]],
            [
                ["final", "answer"],
                ["case", "result"],
                ["computed", "result"]
            ]
        ),
        "n_items" => syn!(
            ["n", "m", "sz"],
            [["n"], ["size"], ["len"], ["count"]],
            [["item", "count"], ["num", "items"], ["array", "size"]]
        ),
        "value" => syn!(
            ["x", "v", "w"],
            [["val"], ["x"], ["item"], ["num"]],
            [
                ["current", "value"],
                ["input", "value"],
                ["element", "value"]
            ]
        ),
        "value2" => syn!(
            ["y", "u", "z"],
            [["val2"], ["y"], ["other"]],
            [["second", "value"], ["other", "value"], ["paired", "value"]]
        ),
        "best" => syn!(
            ["b", "mx", "opt"],
            [["best"], ["max", "val"], ["top"]],
            [
                ["best", "so", "far"],
                ["maximum", "value"],
                ["optimal", "value"]
            ]
        ),
        "worst" => syn!(
            ["w", "mn", "lo"],
            [["worst"], ["min", "val"], ["low"]],
            [
                ["minimum", "value"],
                ["smallest", "value"],
                ["lowest", "seen"]
            ]
        ),
        "distance" => syn!(
            ["d", "dd", "ds"],
            [["d"], ["dist"], ["track"]],
            [["distance"], ["track", "length"], ["total", "distance"]]
        ),
        "speed" => syn!(
            ["v", "sp", "y"],
            [["speed"], ["vel"], ["rate"]],
            [["horse", "speed"], ["current", "speed"], ["velocity"]]
        ),
        "time_val" => syn!(
            ["t", "tm", "tt"],
            [["t"], ["time"], ["max", "time"]],
            [["time", "needed"], ["arrival", "time"], ["slowest", "time"]]
        ),
        "position" => syn!(
            ["x", "p", "ps"],
            [["pos"], ["x"], ["start"]],
            [["position"], ["start", "position"], ["horse", "position"]]
        ),
        "text" => syn!(
            ["s", "w", "st"],
            [["s"], ["str"], ["word"], ["line"]],
            [["input", "string"], ["the", "word"], ["text", "line"]]
        ),
        "target" => syn!(
            ["k", "g", "tg"],
            [["k"], ["target"], ["goal"]],
            [["target", "value"], ["goal", "value"], ["wanted", "sum"]]
        ),
        "arr" => syn!(
            ["a", "v", "xs"],
            [["a"], ["arr"], ["vals"], ["nums"], ["data"]],
            [["values"], ["numbers"], ["input", "array"], ["elements"]]
        ),
        "flag" => syn!(
            ["f", "ok", "b"],
            [["ok"], ["flag"], ["good"], ["valid"]],
            [["is", "valid"], ["all", "good"], ["check", "passed"]]
        ),
        "left" => syn!(
            ["l", "lo", "p"],
            [["l"], ["lo"], ["left"]],
            [["left", "ptr"], ["low", "bound"], ["left", "index"]]
        ),
        "right" => syn!(
            ["r", "hi", "q"],
            [["r"], ["hi"], ["right"]],
            [["right", "ptr"], ["high", "bound"], ["right", "index"]]
        ),
        "temp" => syn!(
            ["t", "tmp", "h"],
            [["tmp"], ["temp"], ["aux"]],
            [["temp", "value"], ["scratch"], ["holding", "value"]]
        ),
        "digit" => syn!(
            ["d", "dg", "c"],
            [["d"], ["digit"], ["dig"]],
            [["current", "digit"], ["digit", "value"], ["last", "digit"]]
        ),
        "solve_fn" => syn!(
            ["f", "go", "run"],
            [["solve"], ["process"], ["work"], ["calc"]],
            [
                ["solve", "case"],
                ["process", "case"],
                ["handle", "test", "case"],
                ["solve", "test", "case"]
            ]
        ),
        "helper_fn" => syn!(
            ["g", "h", "aux"],
            [["helper"], ["compute"], ["check"], ["eval"]],
            [
                ["compute", "value"],
                ["check", "condition"],
                ["evaluate", "item"]
            ]
        ),
        "a_val" => syn!(
            ["a", "p", "m"],
            [["a"], ["first"], ["x1"]],
            [["first", "number"], ["value", "a"], ["left", "operand"]]
        ),
        "b_val" => syn!(
            ["b", "q", "n"],
            [["b"], ["second"], ["x2"]],
            [["second", "number"], ["value", "b"], ["right", "operand"]]
        ),
        "limit" => syn!(
            ["n", "l", "up"],
            [["limit"], ["bound"], ["max", "n"]],
            [["upper", "limit"], ["upper", "bound"], ["search", "limit"]]
        ),
        other => {
            // Unknown concepts degrade gracefully to their own words.
            let _ = other;
            syn!(
                ["x", "y", "z"],
                [["var"], ["item"], ["thing"]],
                [["generic", "value"], ["misc", "value"]]
            )
        }
    }
}

/// Hands out identifiers for semantic concepts, memoized per concept,
/// collision-free within one file.
#[derive(Debug, Clone)]
pub struct Namer {
    style: NamingStyle,
    rng: Pcg64,
    assigned: HashMap<String, String>,
    used: Vec<String>,
}

impl Namer {
    /// Creates a namer with the author's convention and a private
    /// random stream (determines synonym choice).
    pub fn new(style: NamingStyle, rng: Pcg64) -> Self {
        Namer {
            style,
            rng,
            assigned: HashMap::new(),
            used: Vec::new(),
        }
    }

    /// The convention in use.
    pub fn style(&self) -> NamingStyle {
        self.style
    }

    /// Returns the (stable) name for `concept`, creating it on first
    /// request.
    pub fn name(&mut self, concept: &str) -> String {
        if let Some(existing) = self.assigned.get(concept) {
            return existing.clone();
        }
        let syn = synonyms(concept);
        // The per-file draw picks a slot, the per-author flavor
        // rotates it: file-to-file variety is preserved while two
        // otherwise-identical authors still diverge on word choice.
        let flavor = self.style.flavor as usize;
        let mut candidate = match self.style.verbosity {
            Verbosity::Short => {
                let i = self.rng.next_below(syn.short.len());
                syn.short[(i + flavor) % syn.short.len()].to_string()
            }
            Verbosity::Medium => {
                let i = self.rng.next_below(syn.medium.len());
                let words = syn.medium[(i + flavor) % syn.medium.len()];
                apply_case(words, self.style.case_style)
            }
            Verbosity::Long => {
                let i = self.rng.next_below(syn.long.len());
                let words = syn.long[(i + flavor) % syn.long.len()];
                apply_case(words, self.style.case_style)
            }
        };
        // Keyword and collision avoidance.
        if is_reserved_name(&candidate) {
            candidate.push('v');
        }
        while self.used.iter().any(|u| u == &candidate) {
            candidate.push(match self.style.verbosity {
                Verbosity::Short => '2',
                _ => 'X',
            });
        }
        self.used.push(candidate.clone());
        self.assigned.insert(concept.to_string(), candidate.clone());
        candidate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn namer(case_style: Case, verbosity: Verbosity, seed: u64) -> Namer {
        Namer::new(
            NamingStyle {
                case_style,
                verbosity,
                flavor: 0,
            },
            Pcg64::new(seed),
        )
    }

    #[test]
    fn flavor_rotates_word_choice_per_author() {
        // Same convention, same per-file seed, different flavor =>
        // different (rotated) synonym picks for at least one concept.
        let name_with = |flavor: u8| {
            let mut n = Namer::new(
                NamingStyle {
                    case_style: Case::Camel,
                    verbosity: Verbosity::Medium,
                    flavor,
                },
                Pcg64::new(11),
            );
            ["num_cases", "answer", "sum", "arr"].map(|c| n.name(c))
        };
        let base = name_with(0);
        assert_ne!(base, name_with(1));
        assert_ne!(base, name_with(2));
        // And each flavor is internally deterministic.
        assert_eq!(name_with(3), name_with(3));
    }

    #[test]
    fn apply_case_conventions() {
        let words = ["num", "test", "cases"];
        assert_eq!(apply_case(&words, Case::Camel), "numTestCases");
        assert_eq!(apply_case(&words, Case::Pascal), "NumTestCases");
        assert_eq!(apply_case(&words, Case::Snake), "num_test_cases");
        assert_eq!(apply_case(&words, Case::Flat), "numtestcases");
    }

    #[test]
    fn names_are_memoized() {
        let mut n = namer(Case::Camel, Verbosity::Medium, 1);
        let a = n.name("num_cases");
        let b = n.name("num_cases");
        assert_eq!(a, b);
    }

    #[test]
    fn different_concepts_get_different_names() {
        let mut n = namer(Case::Snake, Verbosity::Short, 2);
        let mut seen = std::collections::HashSet::new();
        for concept in [
            "num_cases",
            "case_index",
            "loop_index",
            "count",
            "sum",
            "answer",
            "n_items",
            "value",
            "best",
        ] {
            assert!(seen.insert(n.name(concept)), "collision on {concept}");
        }
    }

    #[test]
    fn snake_style_contains_underscores_for_multiword() {
        let mut n = namer(Case::Snake, Verbosity::Long, 3);
        let name = n.name("num_cases");
        assert!(name.contains('_'), "{name}");
        assert_eq!(name, name.to_ascii_lowercase());
    }

    #[test]
    fn short_style_is_terse() {
        let mut n = namer(Case::Camel, Verbosity::Short, 4);
        assert!(n.name("loop_index").len() <= 3);
    }

    #[test]
    fn reserved_words_are_never_produced() {
        // Concept "time_val" has short form "t"; fine. But exhaust many
        // concepts under every style and check nothing reserved leaks.
        for seed in 0..20 {
            for case in [Case::Camel, Case::Pascal, Case::Snake, Case::Flat] {
                for verb in [Verbosity::Short, Verbosity::Medium, Verbosity::Long] {
                    let mut n = namer(case, verb, seed);
                    for concept in ["num_cases", "count", "text", "best", "time_val"] {
                        assert!(!is_reserved_name(&n.name(concept)));
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = namer(Case::Camel, Verbosity::Medium, 9);
        let mut b = namer(Case::Camel, Verbosity::Medium, 9);
        for concept in ["sum", "answer", "loop_index"] {
            assert_eq!(a.name(concept), b.name(concept));
        }
    }

    #[test]
    fn unknown_concept_degrades_gracefully() {
        let mut n = namer(Case::Camel, Verbosity::Medium, 5);
        let name = n.name("never_heard_of_it");
        assert!(!name.is_empty());
    }

    #[test]
    fn sampled_styles_cover_conventions() {
        let mut rng = Pcg64::new(77);
        let mut cases = std::collections::HashSet::new();
        let mut verbs = std::collections::HashSet::new();
        for _ in 0..200 {
            let s = NamingStyle::sample(&mut rng);
            cases.insert(s.case_style);
            verbs.insert(s.verbosity);
        }
        assert_eq!(cases.len(), 4);
        assert_eq!(verbs.len(), 3);
    }
}
