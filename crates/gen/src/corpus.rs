//! Year-corpus assembly (the paper's Table I datasets).

use crate::challenges::ChallengeId;
use crate::style::AuthorStyle;
use std::ops::Range;
use synthattr_util::{pool, Pcg64};

/// Where a code sample came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Origin {
    /// Written by a (synthetic) human author.
    Human,
    /// Produced by the (simulated) LLM.
    ChatGpt,
}

/// One code sample with its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeSample {
    /// The C++ source text.
    pub source: String,
    /// Author index within the year (`0..authors`); the convention
    /// matches the paper's `A<k>` labels.
    pub author: usize,
    /// Challenge index within the year (`0..challenges.len()`).
    pub challenge: usize,
    /// Corpus year (2017/2018/2019).
    pub year: u32,
    /// Provenance.
    pub origin: Origin,
}

/// Specification of one GCJ-style year.
#[derive(Debug, Clone, PartialEq)]
pub struct YearSpec {
    /// The year label.
    pub year: u32,
    /// Number of authors (the paper uses 204).
    pub authors: usize,
    /// The year's challenge set (the paper uses 8).
    pub challenges: Vec<ChallengeId>,
}

impl YearSpec {
    /// The paper-scale spec for one of the three studied years.
    ///
    /// Each year uses a different 8-challenge window of the catalogue,
    /// mimicking GCJ rounds changing problems year over year.
    ///
    /// # Panics
    ///
    /// Panics if `year` is not 2017, 2018, or 2019.
    pub fn paper(year: u32) -> Self {
        let all = ChallengeId::all();
        let offset = match year {
            2017 => 0,
            2018 => 3,
            2019 => 6,
            other => panic!("paper years are 2017-2019, got {other}"),
        };
        YearSpec {
            year,
            authors: 204,
            challenges: all[offset..offset + 8].to_vec(),
        }
    }

    /// A reduced spec for tests and examples.
    pub fn tiny(year: u32, authors: usize, n_challenges: usize) -> Self {
        let all = ChallengeId::all();
        YearSpec {
            year,
            authors,
            challenges: all[..n_challenges.min(all.len())].to_vec(),
        }
    }
}

/// A generated year corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct YearCorpus {
    /// The spec this corpus was generated from.
    pub spec: YearSpec,
    /// `authors × challenges` samples, author-major order.
    pub samples: Vec<CodeSample>,
}

impl YearCorpus {
    /// Samples belonging to `author`.
    pub fn by_author(&self, author: usize) -> impl Iterator<Item = &CodeSample> {
        self.samples.iter().filter(move |s| s.author == author)
    }

    /// Samples belonging to challenge index `challenge`.
    pub fn by_challenge(&self, challenge: usize) -> impl Iterator<Item = &CodeSample> {
        self.samples
            .iter()
            .filter(move |s| s.challenge == challenge)
    }

    /// Total sample count (`authors × challenges`).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// Generates the year corpus: every author solves every challenge in
/// their own persistent style, with a small per-file *wobble* — real
/// programmers are not perfectly consistent, and the wobble keeps the
/// attribution task realistically hard (per-challenge-fold oracle
/// accuracy lands in the paper's 80–90% band instead of saturating).
///
/// This is [`stream_year`] with one chunk of every author, so it
/// generates on the worker pool too.
pub fn generate_year(spec: &YearSpec, root_seed: u64) -> YearCorpus {
    YearCorpus {
        spec: spec.clone(),
        samples: stream_year(spec, root_seed, spec.authors)
            .next()
            .unwrap_or_default(),
    }
}

/// Streams the corpus in chunks of `chunk_authors` authors, so a
/// 20 000-author year never has to be resident at once.
///
/// Each chunk is generated on the worker pool at the ambient worker
/// count ([`pool::resolve_workers`]), one author per work item, and
/// comes back in author-major order. Every sample derives from
/// `(root_seed, year, author, challenge)` alone and the pool keeps
/// input order, so neither the chunk size nor the worker count changes
/// a sample: concatenating the chunks reproduces
/// `generate_year(spec, root_seed).samples` exactly — the equivalence
/// tests pin both. Callers featurize (or write to a
/// [`ColumnStore`](../../synthattr_ml/colstore/index.html)) each chunk
/// and drop it before pulling the next.
pub fn stream_year(
    spec: &YearSpec,
    root_seed: u64,
    chunk_authors: usize,
) -> impl Iterator<Item = Vec<CodeSample>> + '_ {
    let chunk_authors = chunk_authors.max(1);
    (0..spec.authors).step_by(chunk_authors).map(move |lo| {
        let authors = lo..(lo + chunk_authors).min(spec.authors);
        authors_chunk(spec, root_seed, authors, pool::resolve_workers(None))
    })
}

/// The samples of `authors`, author-major, generated on `workers`
/// threads: one [`AuthorStyle::for_author`] per author, then that
/// author's [`one_sample`] calls.
pub(crate) fn authors_chunk(
    spec: &YearSpec,
    root_seed: u64,
    authors: Range<usize>,
    workers: usize,
) -> Vec<CodeSample> {
    pool::parallel_map_workers(workers, authors.collect(), |author| {
        let base_style = AuthorStyle::for_author(root_seed, spec.year, author);
        spec.challenges
            .iter()
            .enumerate()
            .map(|(ci, &challenge)| one_sample(spec, root_seed, &base_style, author, ci, challenge))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Generates the `(author, challenge)` sample — the inner step of
/// [`authors_chunk`].
fn one_sample(
    spec: &YearSpec,
    root_seed: u64,
    base_style: &AuthorStyle,
    author: usize,
    ci: usize,
    challenge: ChallengeId,
) -> CodeSample {
    let mut rng = Pcg64::seed_from(
        root_seed,
        &[
            "sample",
            &spec.year.to_string(),
            &author.to_string(),
            &ci.to_string(),
        ],
    );
    let mut style = base_style.clone();
    wobble_style(&mut style, &mut rng);
    let source = challenge.render_solution(&style, rng.fork(&["file"]));
    CodeSample {
        source,
        author,
        challenge: ci,
        year: spec.year,
        origin: Origin::Human,
    }
}

/// Applies small per-file deviations from the author's base style
/// (each minor habit flips with a low, independent probability).
fn wobble_style(style: &mut AuthorStyle, rng: &mut Pcg64) {
    const P: f64 = 0.08;
    if rng.next_bool(P) {
        style.io.endl = !style.io.endl;
    }
    if rng.next_bool(P) {
        style.loops.post_increment = !style.loops.post_increment;
    }
    if rng.next_bool(P) {
        style.structure.compound_assign = !style.structure.compound_assign;
    }
    if rng.next_bool(P) {
        style.structure.merge_decls = !style.structure.merge_decls;
    }
    if rng.next_bool(P) {
        style.io.merge_reads = !style.io.merge_reads;
    }
    if rng.next_bool(P) {
        style.render.braceless_single_stmt = !style.render.braceless_single_stmt;
    }
    if rng.next_bool(P) {
        style.render.blank_line_after_prologue = !style.render.blank_line_after_prologue;
    }
}

/// Renders one solution for `challenge` in an arbitrary style (used by
/// the LLM simulator's generation path).
pub fn solution_in_style(
    challenge: ChallengeId,
    style: &AuthorStyle,
    seed: u64,
    tags: &[&str],
) -> String {
    let rng = Pcg64::seed_from(seed, tags);
    challenge.render_solution(style, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthattr_lang::parse;

    #[test]
    fn tiny_corpus_has_expected_shape() {
        let spec = YearSpec::tiny(2017, 5, 4);
        let corpus = generate_year(&spec, 7);
        assert_eq!(corpus.len(), 20);
        assert!(!corpus.is_empty());
        assert_eq!(corpus.by_author(0).count(), 4);
        assert_eq!(corpus.by_challenge(2).count(), 5);
        for s in &corpus.samples {
            assert_eq!(s.origin, Origin::Human);
            parse(&s.source).unwrap_or_else(|e| panic!("{e}\n{}", s.source));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = YearSpec::tiny(2018, 3, 3);
        let a = generate_year(&spec, 99);
        let b = generate_year(&spec, 99);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_corpora() {
        let spec = YearSpec::tiny(2018, 3, 3);
        let a = generate_year(&spec, 1);
        let b = generate_year(&spec, 2);
        assert_ne!(a.samples[0].source, b.samples[0].source);
    }

    #[test]
    fn author_style_is_consistent_across_challenges() {
        // An author's two solutions must share layout habits: check the
        // indentation character matches.
        let spec = YearSpec::tiny(2019, 6, 3);
        let corpus = generate_year(&spec, 5);
        for author in 0..6 {
            let samples: Vec<&CodeSample> = corpus.by_author(author).collect();
            let tab_counts: Vec<bool> = samples.iter().map(|s| s.source.contains("\n\t")).collect();
            assert!(
                tab_counts.iter().all(|&t| t == tab_counts[0]),
                "author {author} switched indentation mid-year"
            );
        }
    }

    #[test]
    fn streaming_reproduces_the_batch_corpus_exactly() {
        let spec = YearSpec::tiny(2017, 7, 3);
        let batch = generate_year(&spec, 41);
        for chunk_authors in [1usize, 2, 3, 7, 50] {
            let streamed: Vec<CodeSample> =
                stream_year(&spec, 41, chunk_authors).flatten().collect();
            assert_eq!(
                streamed, batch.samples,
                "chunk size {chunk_authors} diverged from generate_year"
            );
        }
    }

    #[test]
    fn chunks_match_a_serial_loop_at_any_worker_count() {
        let spec = YearSpec::tiny(2019, 7, 3);
        for chunk_authors in [1usize, 3, spec.authors] {
            for lo in (0..spec.authors).step_by(chunk_authors) {
                let authors = lo..(lo + chunk_authors).min(spec.authors);
                let mut serial = Vec::new();
                for author in authors.clone() {
                    let style = AuthorStyle::for_author(13, spec.year, author);
                    for (ci, &challenge) in spec.challenges.iter().enumerate() {
                        serial.push(one_sample(&spec, 13, &style, author, ci, challenge));
                    }
                }
                for workers in [1usize, 2, 8] {
                    assert_eq!(
                        authors_chunk(&spec, 13, authors.clone(), workers),
                        serial,
                        "authors {authors:?} on {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn streaming_chunks_are_author_aligned() {
        let spec = YearSpec::tiny(2018, 5, 2);
        let chunks: Vec<Vec<CodeSample>> = stream_year(&spec, 9, 2).collect();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].len(), 4); // 2 authors x 2 challenges
        assert_eq!(chunks[2].len(), 2); // tail author
        assert!(chunks[1].iter().all(|s| s.author == 2 || s.author == 3));
    }

    #[test]
    fn paper_specs_window_the_catalogue() {
        let y17 = YearSpec::paper(2017);
        let y18 = YearSpec::paper(2018);
        let y19 = YearSpec::paper(2019);
        assert_eq!(y17.authors, 204);
        assert_eq!(y17.challenges.len(), 8);
        assert_eq!(y18.challenges.len(), 8);
        // Overlapping but distinct windows.
        assert_ne!(y17.challenges, y18.challenges);
        assert_ne!(y18.challenges, y19.challenges);
        assert!(y18.challenges.contains(&y17.challenges[7]));
    }

    #[test]
    #[should_panic(expected = "paper years")]
    fn paper_spec_rejects_unknown_year() {
        YearSpec::paper(2020);
    }

    #[test]
    fn solution_in_style_is_deterministic() {
        let mut rng = Pcg64::new(3);
        let style = AuthorStyle::sample(&mut rng);
        let a = solution_in_style(ChallengeId::Gcd, &style, 11, &["x"]);
        let b = solution_in_style(ChallengeId::Gcd, &style, 11, &["x"]);
        let c = solution_in_style(ChallengeId::Gcd, &style, 11, &["y"]);
        assert_eq!(a, b);
        // Different tags can vary structure (helper vs inline) but both
        // must parse.
        parse(&c).unwrap();
    }
}
