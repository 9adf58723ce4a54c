//! CART decision trees with Gini impurity and per-node feature
//! subsampling (the randomized trees inside the forest).
//!
//! # The split search
//!
//! The split search is the training hot path: every node scans `k`
//! candidate features over `n` samples. It reads a `RankEncoding` of
//! the training set, built once per forest fit: per column, each row's
//! rank among the column's distinct values. Per node, `SplitScratch`
//! gathers the node-local labels once; per candidate it gathers the
//! node's ranks from one contiguous column and groups the rows by
//! rank, by counting sort when the column has at most
//! `COUNTING_SORT_RATIO` distinct values per node row and by sorting
//! packed `rank << 32 | label` keys otherwise. The sweep then keeps
//! **incremental class counts with a running sum of squared counts**
//! for both sides of the candidate split, so the Gini gain of each
//! position is an O(1) update, and all working memory is reused down
//! the recursion.
//!
//! The search selects bit-identical `(feature, threshold, gain)`
//! triples to the reference implementation retained in [`reference`],
//! which sorts the raw values: ranks order rows exactly as
//! [`f64::total_cmp`] does and change exactly where the values differ,
//! so both score the same boundaries; class counts are integers, so
//! the running sums of squares equal the naive recount; and a
//! threshold read from the distinct-value table has the bits of one
//! computed from the rows (DESIGN.md §7 gives the `±0.0` argument). A
//! golden equivalence test and a property test
//! (`optimized_split_matches_reference`) pin this invariant.
//!
//! # Scaling to tens of thousands of classes
//!
//! The corpus scale-out path trains on 10k–20k author labels. Two
//! representations that were fine at 204 classes become the bottleneck
//! there, so both are class-sparse:
//!
//! * **Leaves** store only the classes *present* in the leaf as
//!   `(class, probability)` pairs. A dense `Vec<f32>` per leaf is
//!   O(leaves × C) — ~80 KB per leaf at 20k classes, gigabytes per
//!   tree — while the pairs sum to at most the tree's sample count.
//!   Prediction adds the sparse pairs into a dense accumulator; the
//!   skipped entries are exact `+0.0` additions, so forest
//!   probabilities are bit-identical to the dense representation.
//! * **Split histograms** are indexed by a per-node `ClassRemap`
//!   that renames the node's distinct classes to `0..m` (epoch-stamped
//!   O(1) lookups, one O(C) allocation per tree). Gini is a sum over
//!   per-class counts, so renaming classes permutes integer additions
//!   only — every float the search computes is unchanged. Both the
//!   optimised and the reference splitter read labels through the same
//!   remap, so the equivalence tests pin the whole arrangement.

use crate::dataset::Dataset;
use crate::rank::RankEncoding;
use synthattr_util::Pcg64;

/// How many candidate features each split considers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaxFeatures {
    /// `ceil(sqrt(d))` — the standard random-forest default.
    Sqrt,
    /// All features — classic single CART tree.
    All,
    /// A fixed count (clamped to `d`).
    Count(usize),
}

impl MaxFeatures {
    fn resolve(self, dim: usize) -> usize {
        match self {
            MaxFeatures::Sqrt => (dim as f64).sqrt().ceil() as usize,
            MaxFeatures::All => dim,
            MaxFeatures::Count(k) => k.min(dim),
        }
        .max(1)
    }
}

/// Tree growth limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples a node needs to be split further.
    pub min_samples_split: usize,
    /// Split candidate feature count.
    pub max_features: MaxFeatures,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 40,
            min_samples_split: 2,
            max_features: MaxFeatures::Sqrt,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        /// Normalized class distribution at the leaf, sparse over the
        /// classes actually present, ascending by class id.
        dist: Vec<(u32, f32)>,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Index of the left child in the node arena.
        left: usize,
        /// Index of the right child in the node arena.
        right: usize,
    },
}

/// The best split found for one node: `(feature, threshold, gain)`.
type BestSplit = Option<(usize, f64, f64)>;

/// Per-tree scratch renaming each node's distinct classes to a dense
/// `0..m` range, so split histograms cost O(m) instead of O(C) at
/// every node.
///
/// The `stamp` array makes invalidation free: a slot is valid only if
/// its stamp equals the current epoch, so starting a new node is one
/// counter increment, not an O(C) clear. Slots are assigned in
/// first-seen order over the node's indices — deterministic, because
/// the index order itself is.
pub(crate) struct ClassRemap {
    slot: Vec<u32>,
    stamp: Vec<u64>,
    epoch: u64,
    classes: Vec<u32>,
}

impl ClassRemap {
    pub(crate) fn new(n_classes: usize) -> Self {
        ClassRemap {
            slot: vec![0; n_classes],
            stamp: vec![0; n_classes],
            epoch: 0,
            classes: Vec::new(),
        }
    }

    /// Starts a node: maps its distinct labels to `0..m` and fills
    /// `counts` with the local class histogram (`counts[s]` = samples
    /// of the class in slot `s`).
    pub(crate) fn begin(
        &mut self,
        data: &RankEncoding,
        indices: &[usize],
        counts: &mut Vec<usize>,
    ) {
        self.epoch += 1;
        self.classes.clear();
        counts.clear();
        for &i in indices {
            let c = data.label(i);
            if self.stamp[c] != self.epoch {
                self.stamp[c] = self.epoch;
                self.slot[c] = self.classes.len() as u32;
                self.classes.push(c as u32);
                counts.push(0);
            }
            counts[self.slot[c] as usize] += 1;
        }
    }

    /// The local slot of a global class id (valid for labels seen by
    /// the latest [`Self::begin`]).
    #[inline]
    pub(crate) fn local(&self, class: usize) -> usize {
        debug_assert_eq!(self.stamp[class], self.epoch, "class unseen by this node");
        self.slot[class] as usize
    }

    /// Slot-to-global-class mapping for the current node.
    pub(crate) fn classes(&self) -> &[u32] {
        &self.classes
    }
}

/// Counting sort groups a node's rows when the candidate column has at
/// most this many distinct values per node row; past it, sorting the
/// node's keys is cheaper than walking the column's empty buckets.
const COUNTING_SORT_RATIO: usize = 2;

/// Whether a node of `rows` rows groups a column of `distinct` values
/// by counting sort (else by sorting its keys).
#[inline]
fn counting_sort_fits(distinct: usize, rows: usize) -> bool {
    distinct <= COUNTING_SORT_RATIO * rows
}

/// Reusable per-node working memory for the split search, owned once
/// per tree fit and threaded down the recursion so no inner loop
/// allocates.
///
/// `labels` holds the node-local class slot of each of the node's rows;
/// `keys` the node's `rank << 32 | slot` keys for one candidate, in row
/// order, and `grouped` the same keys grouped by ascending rank when a
/// counting sort (with its `buckets`) groups them. `left_counts` /
/// `right_counts` are the incrementally-maintained class histograms of
/// the two sides of the sweeping split position.
pub(crate) struct SplitScratch {
    labels: Vec<u32>,
    keys: Vec<u64>,
    grouped: Vec<u64>,
    buckets: Vec<u32>,
    left_counts: Vec<usize>,
    right_counts: Vec<usize>,
}

impl SplitScratch {
    pub(crate) fn new() -> Self {
        SplitScratch {
            labels: Vec::new(),
            keys: Vec::new(),
            grouped: Vec::new(),
            buckets: Vec::new(),
            left_counts: Vec::new(),
            right_counts: Vec::new(),
        }
    }

    /// The split search: per candidate feature, group the node's rows
    /// by rank, then a single sweep maintaining class counts and sums
    /// of squared counts for both sides, so each candidate position
    /// costs O(1) instead of an O(C) allocation + re-count.
    ///
    /// `counts` is the node-local histogram produced by
    /// [`ClassRemap::begin`]; labels are read through `remap`, so the
    /// side histograms are sized to the node's distinct classes.
    ///
    /// Returns the same `(feature, threshold, gain)` as
    /// [`reference::best_split`], bit for bit: a boundary is scored
    /// exactly where the sorted values differ, the running sums of
    /// squares are integer arithmetic, and the floating-point Gini and
    /// threshold expressions receive identical operands in both paths.
    pub(crate) fn find_best(
        &mut self,
        data: &RankEncoding,
        indices: &[usize],
        candidates: &[usize],
        counts: &[usize],
        remap: &ClassRemap,
        parent_gini: f64,
    ) -> BestSplit {
        let total = indices.len();
        let total_sq = sum_sq(counts);
        let mut best: BestSplit = None;
        // Strictly below any finite gain, so the first evaluated
        // position is always accepted — the same selection the
        // reference's `is_none_or` makes (gains are always finite:
        // both ginis are ratios of finite integers).
        let mut best_gain = f64::NEG_INFINITY;
        let SplitScratch {
            labels,
            keys,
            grouped,
            buckets,
            left_counts,
            right_counts,
        } = self;
        labels.clear();
        labels.extend(indices.iter().map(|&i| remap.local(data.label(i)) as u32));
        grouped.resize(total, 0);
        left_counts.clear();
        left_counts.resize(counts.len(), 0);
        right_counts.clear();
        right_counts.resize(counts.len(), 0);
        for &feature in candidates {
            let ranks = data.ranks(feature);
            let values = data.values(feature);
            keys.clear();
            keys.extend(
                indices
                    .iter()
                    .zip(labels.iter())
                    .map(|(&i, &slot)| u64::from(ranks[i]) << 32 | u64::from(slot)),
            );
            // Within a run of equal ranks the label order is
            // irrelevant — splits are only scored at rank boundaries,
            // where the side histograms are permutation-invariant.
            let sorted: &[u64] = if counting_sort_fits(values.len(), total) {
                group_by_rank(keys, values.len(), buckets, &mut grouped[..total]);
                &grouped[..total]
            } else {
                keys.sort_unstable();
                &keys[..total]
            };
            if sorted[0] >> 32 == sorted[total - 1] >> 32 {
                continue; // constant feature in this node
            }
            left_counts.fill(0);
            right_counts.copy_from_slice(counts);
            let mut left_sq = 0u64;
            let mut right_sq = total_sq;
            for split_at in 1..total {
                // Move one sample from the right side to the left:
                // (c+1)^2 - c^2 = 2c+1 and (c-1)^2 - c^2 = -(2c-1).
                let prev = sorted[split_at - 1];
                let class = prev as u32 as usize;
                left_sq += 2 * left_counts[class] as u64 + 1;
                left_counts[class] += 1;
                right_sq -= 2 * right_counts[class] as u64 - 1;
                right_counts[class] -= 1;
                let (prev_rank, cur_rank) = (prev >> 32, sorted[split_at] >> 32);
                if prev_rank == cur_rank {
                    continue; // cannot split between equal values
                }
                let n_left = split_at;
                let n_right = total - split_at;
                let weighted = (n_left as f64 * gini_from_sq(left_sq, n_left)
                    + n_right as f64 * gini_from_sq(right_sq, n_right))
                    / total as f64;
                let gain = parent_gini - weighted;
                // Zero-gain splits are accepted on impure nodes (XOR-like
                // structure has no first-split gain); recursion still
                // terminates because both children are strictly smaller.
                if gain > best_gain {
                    best_gain = gain;
                    let threshold = 0.5 * (values[prev_rank as usize] + values[cur_rank as usize]);
                    best = Some((feature, threshold, gain));
                }
            }
        }
        best
    }
}

/// Counting sort of `keys` by rank (their high 32 bits, each below
/// `distinct`) into `out`, ascending; keys of one rank keep their
/// input order.
fn group_by_rank(keys: &[u64], distinct: usize, buckets: &mut Vec<u32>, out: &mut [u64]) {
    buckets.clear();
    buckets.resize(distinct + 1, 0);
    for &key in keys {
        buckets[(key >> 32) as usize + 1] += 1;
    }
    // Running sums turn the shifted counts into each rank's first slot.
    let mut next = 0u32;
    for slot in buckets.iter_mut() {
        next += *slot;
        *slot = next;
    }
    for &key in keys {
        let slot = &mut buckets[(key >> 32) as usize];
        out[*slot as usize] = key;
        *slot += 1;
    }
}

/// A trained CART decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_classes: usize,
}

impl DecisionTree {
    /// Fits a tree on `data`, optionally restricted to the sample
    /// indices in `indices` (bootstrap support). Encodes `data` once
    /// per call; the forest trainers encode once per forest instead.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `indices` is empty.
    pub fn fit_on(data: &Dataset, indices: &[usize], config: &TreeConfig, rng: &mut Pcg64) -> Self {
        Self::fit_encoded(&RankEncoding::new(data), indices, config, rng)
    }

    /// [`Self::fit_on`] over an encoding the caller built (and may
    /// share between trees).
    pub(crate) fn fit_encoded(
        data: &RankEncoding,
        indices: &[usize],
        config: &TreeConfig,
        rng: &mut Pcg64,
    ) -> Self {
        let mut scratch = SplitScratch::new();
        Self::grow(
            data,
            indices,
            config,
            rng,
            &mut |d, i, cand, counts, rm, pg| scratch.find_best(d, i, cand, counts, rm, pg),
        )
    }

    /// Grows a tree over `indices` with the split search `find_best`.
    fn grow<F>(
        data: &RankEncoding,
        indices: &[usize],
        config: &TreeConfig,
        rng: &mut Pcg64,
        find_best: &mut F,
    ) -> Self
    where
        F: FnMut(&RankEncoding, &[usize], &[usize], &[usize], &ClassRemap, f64) -> BestSplit,
    {
        assert!(!indices.is_empty(), "cannot fit a tree on zero samples");
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            n_classes: data.n_classes(),
        };
        let mut idx = indices.to_vec();
        let mut remap = ClassRemap::new(data.n_classes());
        tree.build_with(data, &mut idx, 0, config, rng, &mut remap, find_best);
        tree
    }

    /// Fits on every sample of `data`.
    pub fn fit(data: &Dataset, config: &TreeConfig, rng: &mut Pcg64) -> Self {
        let all: Vec<usize> = (0..data.len()).collect();
        Self::fit_on(data, &all, config, rng)
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum depth actually reached.
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], at: usize) -> usize {
            match &nodes[at] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, *left).max(depth_of(nodes, *right))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            depth_of(&self.nodes, 0)
        }
    }

    /// Builds a subtree over `indices`; returns its arena slot.
    ///
    /// The growth skeleton (stopping rules, candidate sampling, RNG
    /// draws, partitioning, recursion order) is shared between the
    /// optimised and the reference splitter, and reads labels and
    /// partition values from the encoding in both, so the two trainers
    /// can only differ through `find_best` — which the equivalence
    /// tests prove they don't.
    #[allow(clippy::too_many_arguments)]
    fn build_with<F>(
        &mut self,
        data: &RankEncoding,
        indices: &mut [usize],
        depth: usize,
        config: &TreeConfig,
        rng: &mut Pcg64,
        remap: &mut ClassRemap,
        find_best: &mut F,
    ) -> usize
    where
        F: FnMut(&RankEncoding, &[usize], &[usize], &[usize], &ClassRemap, f64) -> BestSplit,
    {
        // Node-local class histogram: `counts[s]` counts the class in
        // remap slot `s`, so its length is the node's *distinct* class
        // count, not the dataset's. Purity is then a length check.
        let mut counts = Vec::new();
        remap.begin(data, indices, &mut counts);
        let total = indices.len();
        let pure = counts.len() == 1;
        if pure || depth >= config.max_depth || total < config.min_samples_split {
            return self.leaf(&counts, remap.classes(), total);
        }

        let dim = data.dim();
        let k = config.max_features.resolve(dim);
        let candidates = rng.sample_indices(dim, k);

        let parent_gini = gini_from_sq(sum_sq(&counts), total);
        let best = find_best(data, indices, &candidates, &counts, remap, parent_gini);

        let Some((feature, threshold, _)) = best else {
            return self.leaf(&counts, remap.classes(), total);
        };

        // Partition indices in place around the threshold. The encoded
        // value differs from the row's at most in the sign of a zero,
        // which `<=` does not see.
        let mid = partition(indices, |&i| data.value(feature, i) <= threshold);
        if mid == 0 || mid == total {
            return self.leaf(&counts, remap.classes(), total);
        }
        // Reserve the slot before children so the parent sits above them.
        let slot = self.nodes.len();
        self.nodes.push(Node::Leaf { dist: Vec::new() });
        let (left_idx, right_idx) = indices.split_at_mut(mid);
        let left = self.build_with(data, left_idx, depth + 1, config, rng, remap, find_best);
        let right = self.build_with(data, right_idx, depth + 1, config, rng, remap, find_best);
        self.nodes[slot] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        slot
    }

    /// Builds a sparse leaf from the node-local histogram. Must run
    /// while `classes` still describes the node (i.e. before recursing
    /// into children re-stamps the remap).
    fn leaf(&mut self, counts: &[usize], classes: &[u32], total: usize) -> usize {
        let mut dist: Vec<(u32, f32)> = classes
            .iter()
            .zip(counts)
            .map(|(&class, &c)| (class, c as f32 / total.max(1) as f32))
            .collect();
        // Ascending class order so prediction ties break to the lowest
        // class id without consulting absent classes.
        dist.sort_unstable_by_key(|e| e.0);
        self.nodes.push(Node::Leaf { dist });
        self.nodes.len() - 1
    }

    /// The sparse class distribution of the leaf this sample lands in:
    /// `(class, probability)` pairs ascending by class, covering
    /// exactly the classes present in the leaf.
    pub fn leaf_dist(&self, features: &[f64]) -> &[(u32, f32)] {
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf { dist } => return dist,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if features[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Adds this tree's leaf distribution into a dense per-class
    /// accumulator (the forest's soft-voting hot path). Skipping the
    /// absent classes adds exactly `+0.0` to non-negative partial
    /// sums, so the result is bit-identical to dense accumulation.
    pub fn accumulate_proba(&self, features: &[f64], acc: &mut [f32]) {
        for &(class, p) in self.leaf_dist(features) {
            acc[class as usize] += p;
        }
    }

    /// Class-probability estimate for one sample, densified over all
    /// classes.
    pub fn predict_proba(&self, features: &[f64]) -> Vec<f32> {
        let mut acc = vec![0.0f32; self.n_classes];
        self.accumulate_proba(features, &mut acc);
        acc
    }

    /// Predicted class for one sample (argmax probability; ties break
    /// to the lowest class id).
    pub fn predict(&self, features: &[f64]) -> usize {
        // The sparse entries are ascending by class and every absent
        // class has probability zero below the leaf's maximum, so the
        // strict `>` scan reproduces the dense tie-break exactly.
        let mut best = 0usize;
        let mut best_p = f32::NEG_INFINITY;
        for &(class, p) in self.leaf_dist(features) {
            if p > best_p {
                best_p = p;
                best = class as usize;
            }
        }
        best
    }
}

#[cfg(test)]
impl DecisionTree {
    /// Every node in arena order, bit for bit: a split as `[0, feature,
    /// threshold bits, left, right]`, a leaf as `[1]` followed by its
    /// `(class, probability bits)` pairs.
    pub(crate) fn node_bits(&self) -> Vec<Vec<u64>> {
        self.nodes
            .iter()
            .map(|node| match node {
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => vec![
                    0,
                    *feature as u64,
                    threshold.to_bits(),
                    *left as u64,
                    *right as u64,
                ],
                Node::Leaf { dist } => std::iter::once(1)
                    .chain(
                        dist.iter()
                            .flat_map(|&(class, p)| [u64::from(class), u64::from(p.to_bits())]),
                    )
                    .collect(),
            })
            .collect()
    }
}

/// The naive split search retained as the correctness reference for
/// the optimised path.
///
/// It sorts the raw `f64` values of the node's rows with a stable
/// `total_cmp` sort per feature and materialises a new `right_counts`
/// vector at every candidate split position — the O(n·k·C) allocation
/// pattern the optimised path eliminates. It grows trees through the
/// same skeleton as [`DecisionTree::fit_on`], so training through it
/// must produce **bit-identical** trees; the golden equivalence tests
/// rely on that.
#[cfg(test)]
pub mod reference {
    use super::*;

    /// Fits a tree with the naive splitter; same API and RNG stream as
    /// [`DecisionTree::fit_on`].
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty.
    pub fn fit_on(
        data: &Dataset,
        indices: &[usize],
        config: &TreeConfig,
        rng: &mut Pcg64,
    ) -> DecisionTree {
        fit_encoded(data, &RankEncoding::new(data), indices, config, rng)
    }

    /// [`fit_on`] with the skeleton reading `encoded` (the encoding of
    /// `data`), while the split search reads the rows of `data`.
    pub(crate) fn fit_encoded(
        data: &Dataset,
        encoded: &RankEncoding,
        indices: &[usize],
        config: &TreeConfig,
        rng: &mut Pcg64,
    ) -> DecisionTree {
        DecisionTree::grow(
            encoded,
            indices,
            config,
            rng,
            &mut |_, i, cand, counts, rm, pg| best_split(data, i, cand, counts, rm, pg),
        )
    }

    /// The naive per-node search: allocates and re-counts at every
    /// candidate position. Labels go through the same node-local
    /// `remap` as the fast path, so `counts` has one slot per distinct
    /// class in the node — renaming classes only reorders the integer
    /// additions inside each sum of squares.
    pub(crate) fn best_split(
        data: &Dataset,
        indices: &[usize],
        candidates: &[usize],
        counts: &[usize],
        remap: &ClassRemap,
        parent_gini: f64,
    ) -> BestSplit {
        let total = indices.len();
        let mut best: BestSplit = None;
        let mut scratch: Vec<(f64, usize)> = Vec::with_capacity(total);
        for &feature in candidates {
            scratch.clear();
            scratch.extend(
                indices
                    .iter()
                    .map(|&i| (data.row(i)[feature], remap.local(data.label(i)))),
            );
            scratch.sort_by(|a, b| a.0.total_cmp(&b.0));
            if scratch[0].0 == scratch[total - 1].0 {
                continue;
            }
            let mut left_counts = vec![0usize; counts.len()];
            for split_at in 1..total {
                left_counts[scratch[split_at - 1].1] += 1;
                let (prev_val, cur_val) = (scratch[split_at - 1].0, scratch[split_at].0);
                if prev_val == cur_val {
                    continue;
                }
                let right_counts: Vec<usize> = counts
                    .iter()
                    .zip(&left_counts)
                    .map(|(&c, &l)| c - l)
                    .collect();
                let n_left = split_at;
                let n_right = total - split_at;
                let weighted = (n_left as f64 * gini_from_sq(sum_sq(&left_counts), n_left)
                    + n_right as f64 * gini_from_sq(sum_sq(&right_counts), n_right))
                    / total as f64;
                let gain = parent_gini - weighted;
                if best.is_none_or(|(_, _, g)| gain > g) {
                    let threshold = 0.5 * (prev_val + cur_val);
                    best = Some((feature, threshold, gain));
                }
            }
        }
        best
    }
}

/// Index of the maximum element; ties break low.
pub(crate) fn argmax(xs: &[f32]) -> usize {
    let mut best = 0usize;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

/// Sum of squared class counts — the integer core of the Gini
/// impurity. Exact, so the incremental and naive paths agree bit for
/// bit once converted to float.
fn sum_sq(counts: &[usize]) -> u64 {
    counts.iter().map(|&c| (c as u64) * (c as u64)).sum()
}

/// Gini impurity `1 - Σ p_c²` expressed through the integer sum of
/// squared counts: `1 - sq / n²`.
fn gini_from_sq(sq: u64, total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - sq as f64 / (t * t)
}

/// Stable-enough in-place partition; returns the count of elements
/// satisfying the predicate (moved to the front).
fn partition<T, F: Fn(&T) -> bool>(xs: &mut [T], pred: F) -> usize {
    let mut store = 0usize;
    for i in 0..xs.len() {
        if pred(&xs[i]) {
            xs.swap(store, i);
            store += 1;
        }
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthattr_util::prop::Runner;
    use synthattr_util::prop_assert_eq;

    fn xor_dataset() -> Dataset {
        // XOR with noise-free corners replicated: not linearly
        // separable, requires depth >= 2.
        let mut ds = Dataset::new(2);
        for _ in 0..10 {
            ds.push(vec![0.0, 0.0], 0);
            ds.push(vec![1.0, 1.0], 0);
            ds.push(vec![0.0, 1.0], 1);
            ds.push(vec![1.0, 0.0], 1);
        }
        ds
    }

    #[test]
    fn learns_xor_with_all_features() {
        let ds = xor_dataset();
        let cfg = TreeConfig {
            max_features: MaxFeatures::All,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&ds, &cfg, &mut Pcg64::new(1));
        assert_eq!(tree.predict(&[0.0, 0.0]), 0);
        assert_eq!(tree.predict(&[1.0, 1.0]), 0);
        assert_eq!(tree.predict(&[0.0, 1.0]), 1);
        assert_eq!(tree.predict(&[1.0, 0.0]), 1);
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn pure_node_is_single_leaf() {
        let mut ds = Dataset::new(2);
        for i in 0..5 {
            ds.push(vec![i as f64], 1);
        }
        let tree = DecisionTree::fit(&ds, &TreeConfig::default(), &mut Pcg64::new(1));
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[2.0]), 1);
    }

    #[test]
    fn max_depth_limits_growth() {
        let ds = xor_dataset();
        let cfg = TreeConfig {
            max_depth: 1,
            max_features: MaxFeatures::All,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&ds, &cfg, &mut Pcg64::new(1));
        assert!(tree.depth() <= 1);
    }

    #[test]
    fn constant_features_yield_leaf() {
        let mut ds = Dataset::new(2);
        ds.push(vec![5.0, 5.0], 0);
        ds.push(vec![5.0, 5.0], 1);
        ds.push(vec![5.0, 5.0], 0);
        let tree = DecisionTree::fit(&ds, &TreeConfig::default(), &mut Pcg64::new(3));
        assert_eq!(tree.node_count(), 1);
        // Majority class wins.
        assert_eq!(tree.predict(&[5.0, 5.0]), 0);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let ds = xor_dataset();
        let tree = DecisionTree::fit(
            &ds,
            &TreeConfig {
                max_depth: 1,
                max_features: MaxFeatures::All,
                ..TreeConfig::default()
            },
            &mut Pcg64::new(5),
        );
        let p = tree.predict_proba(&[0.0, 0.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = xor_dataset();
        let cfg = TreeConfig::default();
        let t1 = DecisionTree::fit(&ds, &cfg, &mut Pcg64::new(9));
        let t2 = DecisionTree::fit(&ds, &cfg, &mut Pcg64::new(9));
        for pt in [[0.0, 0.0], [0.3, 0.8], [0.9, 0.2]] {
            assert_eq!(t1.predict(&pt), t2.predict(&pt));
        }
    }

    #[test]
    fn fit_on_subset_uses_only_those_rows() {
        let mut ds = Dataset::new(2);
        // Rows 0..4 say feature>0 means class 1; row 4 is a contrary point.
        ds.push(vec![1.0], 1);
        ds.push(vec![2.0], 1);
        ds.push(vec![-1.0], 0);
        ds.push(vec![-2.0], 0);
        ds.push(vec![3.0], 0); // excluded outlier
        let tree = DecisionTree::fit_on(
            &ds,
            &[0, 1, 2, 3],
            &TreeConfig {
                max_features: MaxFeatures::All,
                ..TreeConfig::default()
            },
            &mut Pcg64::new(2),
        );
        assert_eq!(tree.predict(&[3.0]), 1);
    }

    #[test]
    fn max_features_resolution() {
        assert_eq!(MaxFeatures::Sqrt.resolve(100), 10);
        assert_eq!(MaxFeatures::All.resolve(7), 7);
        assert_eq!(MaxFeatures::Count(3).resolve(2), 2);
        assert_eq!(MaxFeatures::Count(0).resolve(5), 1);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_fit_panics() {
        let ds = Dataset::new(2);
        DecisionTree::fit_on(&ds, &[], &TreeConfig::default(), &mut Pcg64::new(1));
    }

    /// A seeded dataset with heavy value ties (small discrete grid),
    /// several classes, and a constant feature — the tricky cases for
    /// split-search equivalence.
    fn gridded_dataset(seed: u64, n: usize, dim: usize, n_classes: usize) -> Dataset {
        let mut rng = Pcg64::new(seed);
        let mut ds = Dataset::new(n_classes);
        for _ in 0..n {
            let mut row: Vec<f64> = (0..dim).map(|_| rng.next_below(5) as f64 / 2.0).collect();
            row.push(3.5); // constant tail feature
            ds.push(row, rng.next_below(n_classes));
        }
        ds
    }

    #[test]
    fn optimized_tree_is_bit_identical_to_reference() {
        for seed in [1u64, 7, 42, 1234] {
            let ds = gridded_dataset(seed, 60, 4, 3);
            let cfg = TreeConfig::default();
            let fast = DecisionTree::fit(&ds, &cfg, &mut Pcg64::new(seed));
            let naive = {
                let all: Vec<usize> = (0..ds.len()).collect();
                reference::fit_on(&ds, &all, &cfg, &mut Pcg64::new(seed))
            };
            assert_eq!(fast.node_count(), naive.node_count(), "seed {seed}");
            assert_eq!(fast.depth(), naive.depth(), "seed {seed}");
            for i in 0..ds.len() {
                // Exact f32 equality: the trees must be the same tree.
                assert_eq!(
                    fast.predict_proba(ds.row(i)),
                    naive.predict_proba(ds.row(i)),
                    "seed {seed} row {i}"
                );
            }
        }
    }

    /// A grid value: code 0 is `-0.0`, and code 3 is `+0.0` between
    /// negative and positive halves, so columns mix both zeros.
    fn grid_value(code: u8) -> f64 {
        if code == 0 {
            -0.0
        } else {
            (f64::from(code) - 3.0) / 2.0
        }
    }

    /// Satellite property test: on random seeded datasets — including
    /// ties, constant features and `-0.0`/`+0.0` mixes — and
    /// bootstrap-like nodes (rows drawn with repeats) on both sides of
    /// the counting-sort switch, the rank-encoded split search picks
    /// exactly the same `(feature, threshold, gain)` as the reference,
    /// compared by bits.
    #[test]
    fn optimized_split_matches_reference() {
        // Candidate columns grouped by counting sort / by key sort.
        let paths = std::cell::Cell::new((0usize, 0usize));
        Runner::new("split_equivalence").cases(256).run(
            |rng| {
                let n_classes = 2 + rng.next_below(3);
                let n = 2 + rng.next_below(79);
                // A narrow grid gives heavy ties; a wide one gives many
                // distinct values, which small nodes group by key sort.
                let widths: Vec<usize> = (0..1 + rng.next_below(5))
                    .map(|_| {
                        if rng.next_below(2) == 0 {
                            6
                        } else {
                            8 + rng.next_below(120)
                        }
                    })
                    .collect();
                let rows: Vec<Vec<u8>> = (0..n)
                    .map(|_| widths.iter().map(|&w| rng.next_below(w) as u8).collect())
                    .collect();
                let labels: Vec<u8> = (0..n).map(|_| rng.next_below(n_classes) as u8).collect();
                let node: Vec<u8> = (0..1 + rng.next_below(2 * n))
                    .map(|_| rng.next_below(n) as u8)
                    .collect();
                (n_classes as u8, rows, labels, node)
            },
            |(n_classes, rows, labels, node)| {
                let n_classes = (*n_classes).max(1) as usize;
                let n = rows.len().min(labels.len());
                let indices: Vec<usize> = node.iter().map(|&i| usize::from(i)).collect();
                if n == 0 || indices.is_empty() || indices.iter().any(|&i| i >= n) {
                    return Ok(()); // shrinking may drop rows a node names
                }
                let dim = rows[0].len();
                if dim == 0 || rows[..n].iter().any(|r| r.len() != dim) {
                    return Ok(()); // shrinking may desync row dimensions
                }
                let mut ds = Dataset::new(n_classes);
                for i in 0..n {
                    let row: Vec<f64> = rows[i].iter().map(|&v| grid_value(v)).collect();
                    ds.push(row, labels[i] as usize % n_classes);
                }
                let encoded = RankEncoding::new(&ds);
                let candidates: Vec<usize> = (0..dim).collect();
                let mut remap = ClassRemap::new(n_classes);
                let mut counts = Vec::new();
                remap.begin(&encoded, &indices, &mut counts);
                let parent_gini = gini_from_sq(sum_sq(&counts), indices.len());
                let mut scratch = SplitScratch::new();
                let fast = scratch.find_best(
                    &encoded,
                    &indices,
                    &candidates,
                    &counts,
                    &remap,
                    parent_gini,
                );
                let naive =
                    reference::best_split(&ds, &indices, &candidates, &counts, &remap, parent_gini);
                let bits = |b: BestSplit| b.map(|(f, t, g)| (f, t.to_bits(), g.to_bits()));
                prop_assert_eq!(bits(fast), bits(naive), "split search diverged");
                let (counted, sorted) = paths.get();
                let by_count = candidates
                    .iter()
                    .filter(|&&f| counting_sort_fits(encoded.values(f).len(), indices.len()))
                    .count();
                paths.set((counted + by_count, sorted + dim - by_count));
                Ok(())
            },
        );
        let (counted, sorted) = paths.get();
        assert!(
            counted > 0 && sorted > 0,
            "both groupings must be exercised: {counted} by counting sort, {sorted} by key sort"
        );
    }

    /// Satellite regression test: a NaN feature value must not corrupt
    /// the splitter. `total_cmp` keeps the sort total (NaN last), so
    /// training stays deterministic and the finite structure is still
    /// learned.
    #[test]
    fn nan_row_does_not_corrupt_the_splitter() {
        let mut ds = Dataset::new(2);
        for i in 0..12 {
            let label = usize::from(i >= 6);
            // Feature 0 separates cleanly at 5.5.
            ds.push_unchecked(vec![i as f64, 1.0], label);
        }
        ds.push_unchecked(vec![f64::NAN, 1.0], 0);
        let cfg = TreeConfig {
            max_features: MaxFeatures::All,
            ..TreeConfig::default()
        };
        let t1 = DecisionTree::fit(&ds, &cfg, &mut Pcg64::new(3));
        let t2 = DecisionTree::fit(&ds, &cfg, &mut Pcg64::new(3));
        // Deterministic despite the NaN...
        for i in 0..12 {
            assert_eq!(t1.predict(ds.row(i)), t2.predict(ds.row(i)), "row {i}");
        }
        // ...and the finite separation is still learned.
        assert_eq!(t1.predict(&[1.0, 1.0]), 0);
        assert_eq!(t1.predict(&[10.0, 1.0]), 1);
    }

    #[test]
    fn sparse_leaves_agree_with_dense_reconstruction() {
        // The sparse leaf representation must carry exactly the
        // classes present, reconstruct the same dense vector, and make
        // the same argmax call as the dense tie-break.
        let ds = gridded_dataset(5, 80, 3, 4);
        let tree = DecisionTree::fit(&ds, &TreeConfig::default(), &mut Pcg64::new(5));
        for i in 0..ds.len() {
            let dist = tree.leaf_dist(ds.row(i));
            assert!(!dist.is_empty(), "row {i}: empty leaf");
            assert!(
                dist.windows(2).all(|w| w[0].0 < w[1].0),
                "row {i}: classes not strictly ascending"
            );
            assert!(dist.iter().all(|&(_, p)| p > 0.0), "row {i}: stored zero");
            let dense = tree.predict_proba(ds.row(i));
            assert_eq!(dense.len(), 4);
            for (class, p) in dense.iter().enumerate() {
                let sparse = dist
                    .iter()
                    .find(|e| e.0 as usize == class)
                    .map_or(0.0, |e| e.1);
                assert_eq!(*p, sparse, "row {i} class {class}");
            }
            assert_eq!(tree.predict(ds.row(i)), argmax(&dense), "row {i}");
        }
    }

    #[test]
    fn class_remap_assigns_dense_first_seen_slots() {
        let mut ds = Dataset::new(6);
        for &(label, v) in &[(4usize, 0.0), (1, 1.0), (4, 2.0), (5, 3.0), (1, 4.0)] {
            ds.push(vec![v], label);
        }
        let ds = RankEncoding::new(&ds);
        let mut remap = ClassRemap::new(6);
        let mut counts = Vec::new();
        remap.begin(&ds, &[0, 1, 2, 3, 4], &mut counts);
        assert_eq!(remap.classes(), &[4, 1, 5]);
        assert_eq!(counts, vec![2, 2, 1]);
        assert_eq!(remap.local(4), 0);
        assert_eq!(remap.local(1), 1);
        assert_eq!(remap.local(5), 2);
        // A later node sees a different subset; stamps invalidate the
        // old slots without any O(C) clearing.
        remap.begin(&ds, &[3, 4], &mut counts);
        assert_eq!(remap.classes(), &[5, 1]);
        assert_eq!(counts, vec![1, 1]);
        assert_eq!(remap.local(5), 0);
        assert_eq!(remap.local(1), 1);
    }

    #[test]
    fn gini_helpers_agree_with_definition() {
        // counts [1, 2] over 3 samples: 1 - (1 + 4) / 9.
        assert_eq!(sum_sq(&[1, 2]), 5);
        let g = gini_from_sq(5, 3);
        assert!((g - (1.0 - 5.0 / 9.0)).abs() < 1e-15, "{g}");
        assert_eq!(gini_from_sq(0, 0), 0.0);
        // Pure node: zero impurity, exactly.
        assert_eq!(gini_from_sq(sum_sq(&[4, 0]), 4), 0.0);
    }
}
