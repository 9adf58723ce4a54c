//! Forest introspection: impurity-based feature importance and
//! out-of-bag (OOB) error estimation.
//!
//! The reproduced paper discusses *which* stylistic features carry the
//! attribution signal; mean-decrease-in-impurity importance over the
//! trained forest answers that without a separate validation set, and
//! the OOB estimate gives a train-time generalization proxy.

use crate::dataset::Dataset;
use crate::forest::{tree_draw, ForestConfig};
use crate::rank::RankEncoding;
use crate::tree::DecisionTree;
use synthattr_util::Pcg64;

/// A forest trained with bookkeeping for importance and OOB analysis.
///
/// This mirrors [`crate::forest::RandomForest`] but retains each
/// tree's bootstrap sample so OOB predictions are possible. It is the
/// analysis-oriented sibling, not a replacement, and is deliberately a
/// separate type so the hot prediction path stays lean.
#[derive(Debug, Clone)]
pub struct AnalysisForest {
    trees: Vec<DecisionTree>,
    /// For each tree, the sorted unique in-bag row indices.
    in_bag: Vec<Vec<usize>>,
    n_classes: usize,
    dim: usize,
}

impl AnalysisForest {
    /// Trains with the same sampling scheme as
    /// [`crate::forest::RandomForest::fit`], from one encoding of
    /// `data` (serial; analysis runs are not on the hot path).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `config.n_trees == 0`.
    pub fn fit(data: &Dataset, config: &ForestConfig, rng: &mut Pcg64) -> Self {
        assert!(!data.is_empty(), "cannot fit a forest on an empty dataset");
        assert!(config.n_trees > 0, "forest needs at least one tree");
        let encoded = RankEncoding::new(data);
        let mut trees = Vec::with_capacity(config.n_trees);
        let mut in_bag = Vec::with_capacity(config.n_trees);
        for t in 0..config.n_trees {
            let (mut tree_rng, indices) = tree_draw(rng, t, data.len(), config.bootstrap_pct);
            let tree = DecisionTree::fit_encoded(&encoded, &indices, &config.tree, &mut tree_rng);
            let mut bag = indices;
            bag.sort_unstable();
            bag.dedup();
            trees.push(tree);
            in_bag.push(bag);
        }
        AnalysisForest {
            trees,
            in_bag,
            n_classes: data.n_classes(),
            dim: data.dim(),
        }
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Out-of-bag error: each sample is predicted only by trees whose
    /// bootstrap missed it; returns the fraction misclassified.
    /// Samples that are in-bag for every tree are skipped.
    pub fn oob_error(&self, data: &Dataset) -> f64 {
        let mut wrong = 0usize;
        let mut scored = 0usize;
        for i in 0..data.len() {
            let mut votes = vec![0.0f32; self.n_classes];
            let mut any = false;
            for (tree, bag) in self.trees.iter().zip(&self.in_bag) {
                if bag.binary_search(&i).is_err() {
                    any = true;
                    tree.accumulate_proba(data.row(i), &mut votes);
                }
            }
            if !any {
                continue;
            }
            scored += 1;
            let pred = votes
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(c, _)| c)
                .unwrap_or(0);
            if pred != data.label(i) {
                wrong += 1;
            }
        }
        if scored == 0 {
            0.0
        } else {
            wrong as f64 / scored as f64
        }
    }

    /// Permutation feature importance on the OOB samples: for each
    /// feature, how much does shuffling it degrade OOB accuracy?
    /// Returns one non-negative score per feature (larger = more
    /// important). Deterministic given `rng`.
    pub fn permutation_importance(&self, data: &Dataset, rng: &mut Pcg64) -> Vec<f64> {
        let baseline = 1.0 - self.oob_error(data);
        let n = data.len();
        (0..self.dim)
            .map(|f| {
                // Build a permuted copy of column f.
                let mut perm: Vec<usize> = (0..n).collect();
                rng.shuffle(&mut perm);
                let rows: Vec<Vec<f64>> = (0..n)
                    .map(|i| {
                        let mut row = data.row(i).to_vec();
                        row[f] = data.row(perm[i])[f];
                        row
                    })
                    .collect();
                let shuffled = Dataset::from_parts(rows, data.labels().to_vec(), data.n_classes());
                let degraded = 1.0 - self.oob_error(&shuffled);
                (baseline - degraded).max(0.0)
            })
            .collect()
    }
}

/// Convenience: the `k` most important features of `data` under a
/// small analysis forest, as `(feature index, importance)` descending.
pub fn top_permutation_features(data: &Dataset, k: usize, rng: &mut Pcg64) -> Vec<(usize, f64)> {
    let config = ForestConfig {
        n_trees: 30,
        ..ForestConfig::default()
    };
    let forest = AnalysisForest::fit(data, &config, &mut rng.fork(&["analysis"]));
    let mut scores: Vec<(usize, f64)> = forest
        .permutation_importance(data, rng)
        .into_iter()
        .enumerate()
        .collect();
    scores.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    scores.truncate(k);
    scores
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feature 0 fully determines the class; features 1-2 are noise.
    fn informative_dataset(seed: u64) -> Dataset {
        let mut rng = Pcg64::new(seed);
        let mut ds = Dataset::new(2);
        for _ in 0..80 {
            let label = rng.next_below(2);
            ds.push(
                vec![
                    label as f64 + rng.next_gaussian(0.0, 0.1),
                    rng.next_f64(),
                    rng.next_f64(),
                ],
                label,
            );
        }
        ds
    }

    fn cfg() -> ForestConfig {
        ForestConfig {
            n_trees: 20,
            ..ForestConfig::default()
        }
    }

    #[test]
    fn oob_error_is_low_on_separable_data() {
        let ds = informative_dataset(1);
        let forest = AnalysisForest::fit(&ds, &cfg(), &mut Pcg64::new(2));
        let err = forest.oob_error(&ds);
        assert!(err < 0.1, "oob error {err}");
        assert_eq!(forest.n_trees(), 20);
    }

    #[test]
    fn oob_error_is_high_on_random_labels() {
        let mut rng = Pcg64::new(3);
        let mut ds = Dataset::new(2);
        for _ in 0..80 {
            ds.push(vec![rng.next_f64(), rng.next_f64()], rng.next_below(2));
        }
        let forest = AnalysisForest::fit(&ds, &cfg(), &mut Pcg64::new(4));
        let err = forest.oob_error(&ds);
        assert!(err > 0.25, "random labels cannot generalize: {err}");
    }

    #[test]
    fn permutation_importance_finds_the_signal() {
        let ds = informative_dataset(5);
        let forest = AnalysisForest::fit(&ds, &cfg(), &mut Pcg64::new(6));
        let imp = forest.permutation_importance(&ds, &mut Pcg64::new(7));
        assert_eq!(imp.len(), 3);
        assert!(
            imp[0] > imp[1] && imp[0] > imp[2],
            "feature 0 must dominate: {imp:?}"
        );
        assert!(imp[0] > 0.2, "{imp:?}");
    }

    #[test]
    fn top_features_helper_ranks_descending() {
        let ds = informative_dataset(8);
        let top = top_permutation_features(&ds, 2, &mut Pcg64::new(9));
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, 0);
        assert!(top[0].1 >= top[1].1);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = informative_dataset(10);
        let a = top_permutation_features(&ds, 3, &mut Pcg64::new(11));
        let b = top_permutation_features(&ds, 3, &mut Pcg64::new(11));
        assert_eq!(a, b);
    }
}
