//! Cross-validation fold construction.
//!
//! The paper evaluates with one fold per GCJ challenge (8 folds of 8
//! challenges): train on 7 challenges' code, test on the held-out
//! challenge. [`group_folds`] implements that protocol;
//! [`stratified_folds`] is the classic per-class-balanced k-fold;
//! [`ClassReservoir`] builds stratified holdouts from *streams* whose
//! length is unknown up front, so fold construction works at corpus
//! scales that never fit in RAM.

use synthattr_util::Pcg64;

/// Per-class reservoir sampler (Vitter's Algorithm R, one reservoir
/// per class): feed it every `(row index, label)` of a stream in one
/// pass and it retains a uniform sample of at most `cap` indices per
/// class, in O(classes × cap) memory regardless of stream length.
///
/// The scale pipeline uses this to carve a stratified holdout out of
/// an on-disk [`crate::colstore::ColumnStore`] without ever holding
/// the full index set: same selection for a fixed `(stream, seed)`,
/// independent of total stream length known in advance or not.
#[derive(Debug, Clone)]
pub struct ClassReservoir {
    /// One reservoir of sampled indices per class.
    reservoirs: Vec<Vec<usize>>,
    /// Stream positions seen per class (drives the inclusion odds).
    seen: Vec<usize>,
    cap: usize,
    rng: Pcg64,
}

impl ClassReservoir {
    /// A sampler keeping at most `cap` indices for each of
    /// `n_classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0` or `n_classes == 0`.
    pub fn new(n_classes: usize, cap: usize, rng: Pcg64) -> Self {
        assert!(cap > 0, "reservoir cap must be positive");
        assert!(n_classes > 0, "need at least one class");
        ClassReservoir {
            reservoirs: vec![Vec::new(); n_classes],
            seen: vec![0; n_classes],
            cap,
            rng,
        }
    }

    /// Offers one stream element. Until a class's reservoir is full
    /// the element is always kept (and the RNG is *not* consumed), so
    /// streams no longer than `cap` per class are kept verbatim.
    ///
    /// # Panics
    ///
    /// Panics if `label` is out of range.
    pub fn offer(&mut self, index: usize, label: usize) {
        let seen = self.seen[label];
        self.seen[label] = seen + 1;
        let pool = &mut self.reservoirs[label];
        if pool.len() < self.cap {
            pool.push(index);
        } else {
            // Classic Algorithm R: the (seen+1)-th element replaces a
            // random slot with probability cap / (seen+1).
            let j = self.rng.next_below(seen + 1);
            if j < self.cap {
                pool[j] = index;
            }
        }
    }

    /// Sampled indices for one class, in insertion/replacement order.
    pub fn class(&self, label: usize) -> &[usize] {
        &self.reservoirs[label]
    }

    /// Total elements offered for one class.
    pub fn seen(&self, label: usize) -> usize {
        self.seen[label]
    }

    /// Consumes the sampler into one sorted, deduplicated index list
    /// across all classes — the shape [`Fold::test`] wants.
    pub fn into_indices(self) -> Vec<usize> {
        let mut all: Vec<usize> = self.reservoirs.into_iter().flatten().collect();
        all.sort_unstable();
        all
    }
}

/// Splits a streamed label sequence into a stratified train/test
/// [`Fold`] holding out up to `test_per_class` samples per class via
/// [`ClassReservoir`] — single pass, O(classes × cap + n) memory for
/// the fold itself, never materializing per-class pools.
pub fn reservoir_holdout(
    labels: impl IntoIterator<Item = usize>,
    n_classes: usize,
    test_per_class: usize,
    rng: Pcg64,
) -> Fold {
    let mut sampler = ClassReservoir::new(n_classes, test_per_class, rng);
    let mut n = 0usize;
    for (i, label) in labels.into_iter().enumerate() {
        sampler.offer(i, label);
        n = i + 1;
    }
    let test = sampler.into_indices();
    let mut in_test = vec![false; n];
    for &i in &test {
        in_test[i] = true;
    }
    let train = (0..n).filter(|&i| !in_test[i]).collect();
    Fold { train, test }
}

/// One train/test split as index lists into the original dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fold {
    /// Indices to train on.
    pub train: Vec<usize>,
    /// Indices to evaluate on.
    pub test: Vec<usize>,
}

/// Builds one fold per distinct group id: the fold tests on exactly
/// that group and trains on all others.
///
/// Folds are ordered by ascending group id, so fold `k` of the paper's
/// tables is challenge `k`.
///
/// # Panics
///
/// Panics if `groups` is empty.
pub fn group_folds(groups: &[usize]) -> Vec<Fold> {
    assert!(!groups.is_empty(), "cannot fold an empty dataset");
    let mut ids: Vec<usize> = groups.to_vec();
    ids.sort_unstable();
    ids.dedup();
    ids.iter()
        .map(|&g| {
            let mut train = Vec::new();
            let mut test = Vec::new();
            for (i, &gi) in groups.iter().enumerate() {
                if gi == g {
                    test.push(i);
                } else {
                    train.push(i);
                }
            }
            Fold { train, test }
        })
        .collect()
}

/// Classic stratified k-fold: every fold's test set has approximately
/// the dataset's class proportions.
///
/// # Panics
///
/// Panics if `k == 0` or `labels` is empty.
pub fn stratified_folds(labels: &[usize], k: usize, rng: &mut Pcg64) -> Vec<Fold> {
    assert!(k > 0, "k must be positive");
    assert!(!labels.is_empty(), "cannot fold an empty dataset");
    let n_classes = labels.iter().max().unwrap() + 1;
    // Per-class index pools, shuffled.
    let mut pools: Vec<Vec<usize>> = vec![Vec::new(); n_classes];
    for (i, &l) in labels.iter().enumerate() {
        pools[l].push(i);
    }
    let mut assignment = vec![0usize; labels.len()];
    for pool in &mut pools {
        rng.shuffle(pool);
        for (j, &i) in pool.iter().enumerate() {
            assignment[i] = j % k;
        }
    }
    (0..k)
        .map(|fold| {
            let mut train = Vec::new();
            let mut test = Vec::new();
            for (i, &a) in assignment.iter().enumerate() {
                if a == fold {
                    test.push(i);
                } else {
                    train.push(i);
                }
            }
            Fold { train, test }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_folds_partition_exactly() {
        let groups = [0, 1, 2, 0, 1, 2, 0];
        let folds = group_folds(&groups);
        assert_eq!(folds.len(), 3);
        for fold in &folds {
            assert_eq!(fold.train.len() + fold.test.len(), groups.len());
            // Disjoint.
            for t in &fold.test {
                assert!(!fold.train.contains(t));
            }
        }
        // Every sample is tested exactly once across folds.
        let mut tested: Vec<usize> = folds.iter().flat_map(|f| f.test.clone()).collect();
        tested.sort_unstable();
        assert_eq!(tested, (0..groups.len()).collect::<Vec<_>>());
    }

    #[test]
    fn group_folds_test_on_single_group() {
        let groups = [0, 1, 1, 0, 2];
        let folds = group_folds(&groups);
        assert_eq!(folds[1].test, vec![1, 2]);
        assert!(folds[1].train.iter().all(|&i| groups[i] != 1));
    }

    #[test]
    fn stratified_folds_balance_classes() {
        // 30 of class 0, 30 of class 1.
        let labels: Vec<usize> = (0..60).map(|i| i % 2).collect();
        let folds = stratified_folds(&labels, 3, &mut Pcg64::new(1));
        assert_eq!(folds.len(), 3);
        for fold in &folds {
            let c0 = fold.test.iter().filter(|&&i| labels[i] == 0).count();
            let c1 = fold.test.iter().filter(|&&i| labels[i] == 1).count();
            assert_eq!(c0, 10);
            assert_eq!(c1, 10);
        }
    }

    #[test]
    fn stratified_folds_cover_everything_once() {
        let labels: Vec<usize> = (0..23).map(|i| i % 3).collect();
        let folds = stratified_folds(&labels, 4, &mut Pcg64::new(5));
        let mut tested: Vec<usize> = folds.iter().flat_map(|f| f.test.clone()).collect();
        tested.sort_unstable();
        assert_eq!(tested, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn stratified_is_deterministic_per_seed() {
        let labels: Vec<usize> = (0..40).map(|i| i % 4).collect();
        let f1 = stratified_folds(&labels, 5, &mut Pcg64::new(9));
        let f2 = stratified_folds(&labels, 5, &mut Pcg64::new(9));
        assert_eq!(f1, f2);
    }

    #[test]
    fn reservoir_keeps_short_streams_verbatim() {
        let mut r = ClassReservoir::new(2, 5, Pcg64::new(1));
        for (i, label) in [(0usize, 0usize), (1, 1), (2, 0), (3, 0)] {
            r.offer(i, label);
        }
        assert_eq!(r.class(0), &[0, 2, 3]);
        assert_eq!(r.class(1), &[1]);
        assert_eq!(r.seen(0), 3);
        assert_eq!(r.into_indices(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn reservoir_caps_and_samples_uniformly() {
        // 1000 single-class elements, cap 10: every element should
        // land in the reservoir with probability 10/1000, so over many
        // seeds the mean kept index sits near the middle of the
        // stream, not its start.
        let mut mean_sum = 0.0f64;
        let seeds = 40u64;
        for seed in 0..seeds {
            let mut r = ClassReservoir::new(1, 10, Pcg64::new(seed));
            for i in 0..1000 {
                r.offer(i, 0);
            }
            assert_eq!(r.class(0).len(), 10);
            assert_eq!(r.seen(0), 1000);
            mean_sum += r.class(0).iter().sum::<usize>() as f64 / 10.0;
        }
        let grand_mean = mean_sum / seeds as f64;
        assert!(
            (grand_mean - 500.0).abs() < 60.0,
            "uniform sampling should center near 500, got {grand_mean}"
        );
    }

    #[test]
    fn reservoir_is_deterministic_per_seed() {
        let run = || {
            let mut r = ClassReservoir::new(3, 4, Pcg64::new(77));
            for i in 0..200 {
                r.offer(i, i % 3);
            }
            r.into_indices()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reservoir_holdout_stratifies_and_partitions() {
        let labels: Vec<usize> = (0..90).map(|i| i % 3).collect();
        let fold = reservoir_holdout(labels.iter().copied(), 3, 5, Pcg64::new(3));
        assert_eq!(fold.test.len(), 15);
        for c in 0..3 {
            assert_eq!(fold.test.iter().filter(|&&i| labels[i] == c).count(), 5);
        }
        assert_eq!(fold.train.len() + fold.test.len(), 90);
        let mut all: Vec<usize> = fold.train.iter().chain(&fold.test).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..90).collect::<Vec<_>>());
    }

    #[test]
    fn reservoir_holdout_takes_whole_scarce_classes() {
        // A class rarer than the cap is held out entirely.
        let labels = [0usize, 0, 0, 0, 0, 1];
        let fold = reservoir_holdout(labels.iter().copied(), 2, 2, Pcg64::new(4));
        assert!(fold.test.contains(&5));
        assert_eq!(fold.test.iter().filter(|&&i| labels[i] == 0).count(), 2);
    }

    #[test]
    #[should_panic(expected = "cap must be positive")]
    fn zero_cap_panics() {
        ClassReservoir::new(2, 0, Pcg64::new(1));
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_groups_panic() {
        group_folds(&[]);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        stratified_folds(&[0], 0, &mut Pcg64::new(1));
    }
}
