//! Bagged random forests with parallel training, including
//! shard-parallel training over out-of-core sources
//! ([`RandomForest::fit_sharded`]).

use crate::dataset::Dataset;
use crate::rank::RankEncoding;
use crate::source::DatasetSource;
use crate::tree::{argmax, DecisionTree, TreeConfig};
use std::io;
use synthattr_util::{pool, Pcg64};

/// Random-forest hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree growth limits.
    pub tree: TreeConfig,
    /// Bootstrap sample size as a fraction of the training set
    /// (denominator 100; 100 = classic bagging).
    pub bootstrap_pct: u8,
    /// Worker-count override for training; `None` defers to
    /// `SYNTHATTR_WORKERS` / available parallelism (see
    /// [`synthattr_util::pool::resolve_workers`]), and `Some(1)` trains
    /// serially on the calling thread. Never affects results, only
    /// wall-clock time.
    pub workers: Option<usize>,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 100,
            tree: TreeConfig::default(),
            bootstrap_pct: 100,
            workers: None,
        }
    }
}

impl ForestConfig {
    /// A small fast configuration for unit tests and examples.
    pub fn fast() -> Self {
        ForestConfig {
            n_trees: 25,
            ..Self::default()
        }
    }
}

/// A trained random forest.
///
/// Prediction averages per-tree class probabilities (soft voting);
/// ties break to the lowest class id for determinism.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl RandomForest {
    /// Trains a forest.
    ///
    /// Encodes `data` once (a crate-private rank encoding); every tree reads that
    /// encoding. Each tree gets an independent RNG stream forked from
    /// `rng`, so results are identical whether training runs parallel
    /// or serial.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `config.n_trees == 0`.
    pub fn fit(data: &Dataset, config: &ForestConfig, rng: &mut Pcg64) -> Self {
        assert!(!data.is_empty(), "cannot fit a forest on an empty dataset");
        Self::fit_encoded(
            &RankEncoding::new(data),
            config,
            rng,
            DecisionTree::fit_encoded,
        )
    }

    /// Trains through the naive reference splitter
    /// ([`crate::tree::reference`]) — identical seed derivation and
    /// bootstrap sampling, so the result must be bit-identical to
    /// [`Self::fit`]. Exists for the golden-equivalence tests.
    #[cfg(test)]
    pub fn fit_reference(data: &Dataset, config: &ForestConfig, rng: &mut Pcg64) -> Self {
        Self::fit_encoded(
            &RankEncoding::new(data),
            config,
            rng,
            |encoded, indices, tree, tree_rng| {
                crate::tree::reference::fit_encoded(data, encoded, indices, tree, tree_rng)
            },
        )
    }

    /// Shared trainer: fits tree `t` on its bootstrap ([`tree_draw`])
    /// through `grow`, on the worker pool. The draws depend only on
    /// `rng` and `t`, so worker count never changes the forest.
    fn fit_encoded<G>(data: &RankEncoding, config: &ForestConfig, rng: &Pcg64, grow: G) -> Self
    where
        G: Fn(&RankEncoding, &[usize], &TreeConfig, &mut Pcg64) -> DecisionTree + Sync,
    {
        assert!(config.n_trees > 0, "forest needs at least one tree");
        let trees = pool::parallel_map_workers(
            pool::resolve_workers(config.workers),
            (0..config.n_trees).collect(),
            |t| {
                let (mut tree_rng, indices) = tree_draw(rng, t, data.len(), config.bootstrap_pct);
                grow(data, &indices, &config.tree, &mut tree_rng)
            },
        );
        RandomForest {
            trees,
            n_classes: data.n_classes(),
        }
    }

    /// Trains a forest shard-parallel over any [`DatasetSource`],
    /// without ever materializing the full source in RAM.
    ///
    /// The source's rows are split into `n_shards` contiguous ranges
    /// (sizes differing by at most one). Tree `t` trains on shard
    /// `t % n_shards`: its bootstrap draws from that shard's rows
    /// only, with the bootstrap size scaled to the shard. Shards load
    /// and train concurrently on the worker pool. A shard's rows are
    /// consumed as they are rank-encoded and its trees
    /// train from the encoding alone, so at most the loading shards'
    /// rows are resident at once. The per-shard sub-forests merge back
    /// in tree-index order, so the result is one ordinary
    /// [`RandomForest`].
    ///
    /// # Determinism
    ///
    /// Per-tree RNG streams are forked from `rng` by tree index —
    /// exactly the derivation [`Self::fit`] uses — and
    /// shard assignment is pure arithmetic, so the trained forest
    /// depends only on `(source rows, n_shards, config, seed)`: never
    /// on the worker count. With `n_shards == 1` the whole source
    /// loads as one dataset and trains through `fit`'s trainer, so the
    /// forest is **bit-identical** to `fit` on the materialized
    /// dataset (the `tests/scale_out.rs` A/B suite pins this at paper
    /// scale).
    ///
    /// # Errors
    ///
    /// Propagates the first source I/O or validation error.
    ///
    /// # Panics
    ///
    /// Panics if the source is empty or `config.n_trees == 0`.
    pub fn fit_sharded<S: DatasetSource + ?Sized>(
        source: &S,
        n_shards: usize,
        config: &ForestConfig,
        rng: &mut Pcg64,
    ) -> io::Result<Self> {
        assert!(
            !source.is_empty(),
            "cannot fit a forest on an empty dataset"
        );
        assert!(config.n_trees > 0, "forest needs at least one tree");
        let n = source.len();
        let n_shards = n_shards.clamp(1, n.min(config.n_trees));

        if n_shards == 1 {
            // Degenerate sharding: load once and train through fit's
            // trainer, parallel over trees (shard-level parallelism
            // would leave every worker but one idle).
            let data = RankEncoding::from_rows(source.load_rows(0, n)?);
            return Ok(Self::fit_encoded(
                &data,
                config,
                rng,
                DecisionTree::fit_encoded,
            ));
        }

        // Shard s covers a contiguous range; the first `rem` shards
        // absorb the remainder row each.
        let base = n / n_shards;
        let rem = n % n_shards;
        let range_of = |s: usize| -> (usize, usize) {
            let start = s * base + s.min(rem);
            let count = base + usize::from(s < rem);
            (start, count)
        };
        // Tree t → shard t % n_shards.
        let mut shard_trees: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
        for t in 0..config.n_trees {
            shard_trees[t % n_shards].push(t);
        }

        let rng = &*rng;
        let train_shard =
            |(s, trees): (usize, Vec<usize>)| -> io::Result<Vec<(usize, DecisionTree)>> {
                let (start, count) = range_of(s);
                // The loaded rows are consumed as they are encoded:
                // only the encoding stays resident.
                let data = RankEncoding::from_rows(source.load_rows(start, count)?);
                Ok(trees
                    .into_iter()
                    .map(|t| {
                        let (mut tree_rng, indices) =
                            tree_draw(rng, t, count, config.bootstrap_pct);
                        (
                            t,
                            DecisionTree::fit_encoded(&data, &indices, &config.tree, &mut tree_rng),
                        )
                    })
                    .collect())
            };

        let shard_jobs: Vec<(usize, Vec<usize>)> = shard_trees.into_iter().enumerate().collect();
        let per_shard = pool::parallel_try_map_workers(
            pool::resolve_workers(config.workers),
            shard_jobs,
            train_shard,
        )?;

        // Merge in tree-index order so the ensemble is independent of
        // which shard trained which tree.
        let mut merged: Vec<(usize, DecisionTree)> = per_shard.into_iter().flatten().collect();
        merged.sort_by_key(|(t, _)| *t);
        Ok(RandomForest {
            trees: merged.into_iter().map(|(_, tree)| tree).collect(),
            n_classes: source.n_classes(),
        })
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Mean class-probability vector over all trees.
    ///
    /// Trees accumulate their sparse leaf distributions directly into
    /// the dense accumulator; at 20k classes this walks the handful of
    /// classes present in each leaf instead of the full class range.
    pub fn predict_proba(&self, features: &[f64]) -> Vec<f32> {
        let mut acc = vec![0.0f32; self.n_classes];
        for tree in &self.trees {
            tree.accumulate_proba(features, &mut acc);
        }
        let k = self.trees.len() as f32;
        for a in &mut acc {
            *a /= k;
        }
        acc
    }

    /// Predicted class (argmax of [`Self::predict_proba`]).
    pub fn predict(&self, features: &[f64]) -> usize {
        argmax(&self.predict_proba(features))
    }

    /// Mean class-probability vectors for a batch of rows, in input
    /// order, fanned out over the scoped worker pool.
    ///
    /// Per-row prediction is a pure function of the trained forest and
    /// the pool preserves input order, so the result is byte-identical
    /// for every worker count (only wall-clock changes). Small batches
    /// stay on the calling thread.
    pub fn predict_proba_batch(&self, rows: &[&[f64]]) -> Vec<Vec<f32>> {
        if rows.len() < PARALLEL_PREDICT_MIN {
            return rows.iter().map(|r| self.predict_proba(r)).collect();
        }
        pool::parallel_map(rows.to_vec(), |r| self.predict_proba(r))
    }

    /// Predicted classes for a batch of rows, in input order (argmax
    /// of [`Self::predict_proba_batch`], same determinism guarantee).
    pub fn predict_batch(&self, rows: &[&[f64]]) -> Vec<usize> {
        if rows.len() < PARALLEL_PREDICT_MIN {
            return rows.iter().map(|r| self.predict(r)).collect();
        }
        pool::parallel_map(rows.to_vec(), |r| self.predict(r))
    }

    /// Predicts every row of `data`, in order (batch fast path).
    pub fn predict_all(&self, data: &Dataset) -> Vec<usize> {
        let rows: Vec<&[f64]> = (0..data.len()).map(|i| data.row(i)).collect();
        self.predict_batch(&rows)
    }
}

/// Batches below this size are predicted on the calling thread: the
/// pool's thread spawn costs more than a handful of tree walks.
const PARALLEL_PREDICT_MIN: usize = 64;

/// Tree `t`'s RNG stream and bootstrap, the one derivation every
/// bagged trainer shares: the stream is forked from the forest's `rng`
/// by tree index (forking leaves `rng` untouched, so trees may draw in
/// any order, on any worker), and its first draws pick the bootstrap,
/// `bootstrap_pct`% of `n` rows (at least one) with replacement. The
/// tree grows from the rest of the stream.
pub(crate) fn tree_draw(rng: &Pcg64, t: usize, n: usize, bootstrap_pct: u8) -> (Pcg64, Vec<usize>) {
    let mut tree_rng = rng.fork(&["tree", &t.to_string()]);
    let sample_size = ((n * bootstrap_pct as usize) / 100).max(1);
    let indices = (0..sample_size).map(|_| tree_rng.next_below(n)).collect();
    (tree_rng, indices)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four Gaussian-ish blobs, one per class.
    fn blobs(n_per_class: usize, seed: u64) -> Dataset {
        let mut rng = Pcg64::new(seed);
        let centers = [(0.0, 0.0), (5.0, 5.0), (0.0, 5.0), (5.0, 0.0)];
        let mut ds = Dataset::new(4);
        for (label, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..n_per_class {
                ds.push(
                    vec![rng.next_gaussian(cx, 0.6), rng.next_gaussian(cy, 0.6)],
                    label,
                );
            }
        }
        ds
    }

    #[test]
    fn separable_blobs_classify_cleanly() {
        let train = blobs(30, 1);
        let test = blobs(10, 2);
        let forest = RandomForest::fit(&train, &ForestConfig::fast(), &mut Pcg64::new(3));
        let preds = forest.predict_all(&test);
        let correct = preds
            .iter()
            .zip(test.labels())
            .filter(|(p, l)| p == l)
            .count();
        assert!(
            correct as f64 / test.len() as f64 > 0.95,
            "accuracy {correct}/{}",
            test.len()
        );
    }

    #[test]
    fn worker_count_never_changes_the_forest() {
        // The satellite guarantee behind SYNTHATTR_WORKERS: per-tree
        // seeds are derived before dispatch, so 1/2/8 workers must
        // train byte-identical forests. One worker is the serial path:
        // the pool runs it on the calling thread.
        let train = blobs(20, 30);
        let test = blobs(15, 31);
        let fit_with = |workers: usize| {
            let cfg = ForestConfig {
                n_trees: 16,
                workers: Some(workers),
                ..ForestConfig::default()
            };
            RandomForest::fit(&train, &cfg, &mut Pcg64::new(77))
        };
        let baseline = fit_with(1);
        for workers in [2, 8] {
            let forest = fit_with(workers);
            for i in 0..test.len() {
                assert_eq!(
                    baseline.predict_proba(test.row(i)),
                    forest.predict_proba(test.row(i)),
                    "row {i} with {workers} workers"
                );
            }
        }
    }

    #[test]
    fn probabilities_are_normalized() {
        let train = blobs(10, 6);
        let forest = RandomForest::fit(&train, &ForestConfig::fast(), &mut Pcg64::new(7));
        let p = forest.predict_proba(&[2.5, 2.5]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "{p:?}");
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn more_trees_does_not_hurt_on_noise() {
        // Smoke test: a bigger forest still trains and predicts.
        let train = blobs(10, 8);
        let forest = RandomForest::fit(
            &train,
            &ForestConfig {
                n_trees: 60,
                ..ForestConfig::default()
            },
            &mut Pcg64::new(9),
        );
        assert_eq!(forest.n_trees(), 60);
        assert_eq!(forest.n_classes(), 4);
        let _ = forest.predict(&[0.0, 0.0]);
    }

    #[test]
    fn deterministic_across_runs() {
        let train = blobs(15, 10);
        let f1 = RandomForest::fit(&train, &ForestConfig::fast(), &mut Pcg64::new(42));
        let f2 = RandomForest::fit(&train, &ForestConfig::fast(), &mut Pcg64::new(42));
        let test = blobs(5, 11);
        assert_eq!(f1.predict_all(&test), f2.predict_all(&test));
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let ds = Dataset::new(2);
        RandomForest::fit(&ds, &ForestConfig::default(), &mut Pcg64::new(1));
    }

    /// Golden equivalence: the optimised trainer must produce
    /// bit-identical forests to the naive reference splitter — same
    /// seeds, same predictions, at every worker count.
    #[test]
    fn optimized_forest_is_bit_identical_to_reference() {
        // Heavy value ties stress the split search harder than
        // Gaussian blobs do.
        let mut rng = Pcg64::new(21);
        let mut train = Dataset::new(3);
        for _ in 0..90 {
            let label = rng.next_below(3);
            train.push(
                vec![
                    (label * 2 + rng.next_below(3)) as f64 / 2.0,
                    rng.next_below(4) as f64 / 2.0,
                    1.25, // constant feature
                ],
                label,
            );
        }
        let test = blobs(12, 22);
        for seed in [3u64, 77] {
            for workers in [1usize, 4, 8] {
                let cfg = ForestConfig {
                    n_trees: 16,
                    workers: Some(workers),
                    ..ForestConfig::default()
                };
                let fast = RandomForest::fit(&train, &cfg, &mut Pcg64::new(seed));
                let naive = RandomForest::fit_reference(&train, &cfg, &mut Pcg64::new(seed));
                for i in 0..train.len() {
                    assert_eq!(
                        fast.predict_proba(train.row(i)),
                        naive.predict_proba(train.row(i)),
                        "seed {seed} workers {workers} train row {i}"
                    );
                }
                for i in 0..test.len() {
                    // Off-distribution probes exercise every leaf path.
                    assert_eq!(
                        fast.predict_proba(test.row(i)),
                        naive.predict_proba(test.row(i)),
                        "seed {seed} workers {workers} test row {i}"
                    );
                }
            }
        }
    }

    /// A column holding `-0.0`, `+0.0`, negative and positive values:
    /// the encoding merges the two zeros into one rank, and the forest
    /// must still equal the reference's, thresholds compared by bits.
    #[test]
    fn signed_zero_column_trains_the_reference_forest_bit_for_bit() {
        let column = [-1.5, -0.25, -0.0, 0.0, 0.75, 2.0];
        let mut rng = Pcg64::new(23);
        let mut train = Dataset::new(3);
        for _ in 0..96 {
            let v: f64 = column[rng.next_below(column.len())];
            // Negatives, zeros and positives mostly carry their own
            // class, so the zero run borders the chosen thresholds.
            let label = if rng.next_below(5) == 0 {
                rng.next_below(3)
            } else if v == 0.0 {
                1
            } else {
                usize::from(v > 0.0) * 2
            };
            let noise = [-0.0, 0.0, 1.0][rng.next_below(3)];
            train.push(vec![v, noise], label);
        }
        let mut zero_borders = 0;
        for seed in [4u64, 19] {
            for workers in [1usize, 4] {
                let cfg = ForestConfig {
                    n_trees: 12,
                    workers: Some(workers),
                    ..ForestConfig::default()
                };
                let fast = RandomForest::fit(&train, &cfg, &mut Pcg64::new(seed));
                let naive = RandomForest::fit_reference(&train, &cfg, &mut Pcg64::new(seed));
                for (t, (a, b)) in fast.trees.iter().zip(&naive.trees).enumerate() {
                    let bits = a.node_bits();
                    assert_eq!(
                        bits,
                        b.node_bits(),
                        "seed {seed} workers {workers} tree {t}"
                    );
                    zero_borders += bits
                        .iter()
                        .filter(|node| {
                            node[0] == 0
                                && node[1] == 0
                                && [-0.125f64, 0.375].map(f64::to_bits).contains(&node[2])
                        })
                        .count();
                }
            }
        }
        assert!(zero_borders > 0, "no split bordered the zero run");
    }

    #[test]
    fn batch_prediction_matches_serial() {
        let train = blobs(20, 14);
        let forest = RandomForest::fit(&train, &ForestConfig::fast(), &mut Pcg64::new(15));
        // Big enough to cross PARALLEL_PREDICT_MIN and hit the pool.
        let test = blobs(40, 16);
        let rows: Vec<&[f64]> = (0..test.len()).map(|i| test.row(i)).collect();
        assert!(rows.len() >= super::PARALLEL_PREDICT_MIN);
        let serial_probs: Vec<Vec<f32>> = rows.iter().map(|r| forest.predict_proba(r)).collect();
        assert_eq!(forest.predict_proba_batch(&rows), serial_probs);
        let serial_preds: Vec<usize> = rows.iter().map(|r| forest.predict(r)).collect();
        assert_eq!(forest.predict_batch(&rows), serial_preds);
        assert_eq!(forest.predict_all(&test), serial_preds);
    }

    #[test]
    fn tiny_batches_stay_on_the_calling_thread() {
        let train = blobs(8, 17);
        let forest = RandomForest::fit(&train, &ForestConfig::fast(), &mut Pcg64::new(18));
        let row = train.row(0);
        assert_eq!(forest.predict_batch(&[row]), vec![forest.predict(row)]);
        assert!(forest.predict_batch(&[]).is_empty());
        assert!(forest.predict_proba_batch(&[]).is_empty());
    }

    #[test]
    fn single_shard_training_is_bit_identical_to_fit() {
        // The A/B guarantee behind scripts/verify.sh --scale: with one
        // shard, fit_sharded trains through fit itself, so the forests
        // must agree to the bit at any worker count.
        let train = blobs(20, 50);
        let test = blobs(15, 51);
        for workers in [1usize, 3, 8] {
            let cfg = ForestConfig {
                n_trees: 14,
                workers: Some(workers),
                ..ForestConfig::default()
            };
            let direct = RandomForest::fit(&train, &cfg, &mut Pcg64::new(99));
            let sharded = RandomForest::fit_sharded(&train, 1, &cfg, &mut Pcg64::new(99)).unwrap();
            for i in 0..test.len() {
                let a = direct.predict_proba(test.row(i));
                let b = sharded.predict_proba(test.row(i));
                assert_eq!(
                    a.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                    b.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                    "row {i} workers {workers}"
                );
            }
        }
    }

    #[test]
    fn sharded_training_is_worker_count_invariant() {
        // Multi-shard forests differ from fit (different bootstraps),
        // but must never depend on how many workers ran the shards,
        // including the single serial worker.
        let train = blobs(20, 52);
        let test = blobs(15, 53);
        let fit_with = |workers: usize| {
            let cfg = ForestConfig {
                n_trees: 16,
                workers: Some(workers),
                ..ForestConfig::default()
            };
            RandomForest::fit_sharded(&train, 3, &cfg, &mut Pcg64::new(7)).unwrap()
        };
        let baseline = fit_with(1);
        for workers in [2usize, 8] {
            let forest = fit_with(workers);
            for i in 0..test.len() {
                assert_eq!(
                    baseline.predict_proba(test.row(i)),
                    forest.predict_proba(test.row(i)),
                    "row {i} with {workers} workers"
                );
            }
        }
    }

    #[test]
    fn sharded_training_from_colstore_matches_in_ram_source() {
        // Same rows, two backends: the trained forests must be
        // bit-identical, proving out-of-core training changes where
        // bytes live, not what gets learned.
        let train = blobs(15, 54);
        let mut path = std::env::temp_dir();
        path.push(format!(
            "synthattr_forest_shard_{}.cols",
            std::process::id()
        ));
        let mut w =
            crate::colstore::ColumnStoreWriter::create(&path, train.dim(), train.n_classes(), 9)
                .unwrap();
        for i in 0..train.len() {
            w.push_row(train.row(i), train.label(i)).unwrap();
        }
        let store = w.finish().unwrap();
        let cfg = ForestConfig {
            n_trees: 10,
            ..ForestConfig::default()
        };
        let from_ram = RandomForest::fit_sharded(&train, 4, &cfg, &mut Pcg64::new(31)).unwrap();
        let from_disk = RandomForest::fit_sharded(&store, 4, &cfg, &mut Pcg64::new(31)).unwrap();
        std::fs::remove_file(&path).unwrap();
        let test = blobs(10, 55);
        for i in 0..test.len() {
            let a = from_ram.predict_proba(test.row(i));
            let b = from_disk.predict_proba(test.row(i));
            assert_eq!(
                a.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                "row {i}"
            );
        }
    }

    #[test]
    fn sharded_forest_still_classifies() {
        // Sanity: shard-local bootstraps still learn the blobs. Each
        // shard sees a contiguous slice, so shuffle labels across the
        // range by interleaving classes.
        let mut rng = Pcg64::new(56);
        let mut train = Dataset::new(4);
        let centers = [(0.0, 0.0), (5.0, 5.0), (0.0, 5.0), (5.0, 0.0)];
        for i in 0..120 {
            let label = i % 4;
            let (cx, cy) = centers[label];
            train.push(
                vec![rng.next_gaussian(cx, 0.6), rng.next_gaussian(cy, 0.6)],
                label,
            );
        }
        let cfg = ForestConfig {
            n_trees: 24,
            ..ForestConfig::default()
        };
        let forest = RandomForest::fit_sharded(&train, 4, &cfg, &mut Pcg64::new(57)).unwrap();
        assert_eq!(forest.n_trees(), 24);
        let test = blobs(10, 58);
        let correct = (0..test.len())
            .filter(|&i| forest.predict(test.row(i)) == test.label(i))
            .count();
        assert!(
            correct as f64 / test.len() as f64 > 0.9,
            "accuracy {correct}/{}",
            test.len()
        );
    }

    #[test]
    fn shard_count_clamps_to_rows_and_trees() {
        // More shards than rows (or trees) must degrade gracefully
        // rather than produce empty shards.
        let train = blobs(2, 59); // 8 rows
        let cfg = ForestConfig {
            n_trees: 5,
            ..ForestConfig::default()
        };
        let forest = RandomForest::fit_sharded(&train, 64, &cfg, &mut Pcg64::new(60)).unwrap();
        assert_eq!(forest.n_trees(), 5);
        let _ = forest.predict(train.row(0));
    }

    #[test]
    fn bootstrap_pct_shrinks_sample() {
        let train = blobs(25, 12);
        let forest = RandomForest::fit(
            &train,
            &ForestConfig {
                bootstrap_pct: 50,
                ..ForestConfig::fast()
            },
            &mut Pcg64::new(13),
        );
        // Still a sane classifier on its own training distribution.
        let preds = forest.predict_all(&train);
        let correct = preds
            .iter()
            .zip(train.labels())
            .filter(|(p, l)| p == l)
            .count();
        assert!(correct * 10 > train.len() * 8);
    }
}
