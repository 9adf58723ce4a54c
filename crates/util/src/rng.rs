//! Deterministic random number generation.
//!
//! Every stochastic component in the workspace (corpus generation, the
//! LLM simulator, forest bootstrapping, fold shuffling) draws from
//! [`Pcg64`], a from-scratch implementation of the PCG-XSL-RR 128/64
//! generator. We implement it ourselves rather than depending on an
//! external crate so that experiment outputs are stable across
//! dependency upgrades — reproducing a table a year from now must give
//! byte-identical output.
//!
//! Seeds are derived *hierarchically* with [`Pcg64::seed_from`]: a root
//! seed plus a path of string labels (e.g. `["gcj2018", "author", "17"]`)
//! yields an independent stream, so adding a new experiment arm never
//! perturbs the randomness of existing arms.

use std::hash::Hasher;

use crate::hash::{Fnv64, FNV_OFFSET};

/// Multiplier for the 128-bit PCG LCG step (from the PCG reference
/// implementation).
const PCG_MUL: u128 = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645;

/// Default increment; any odd value yields a full-period generator.
const PCG_INC: u128 = 0x5851_F42D_4C95_7F2D_1405_7B7E_F767_814F;

/// A deterministic PCG-XSL-RR 128/64 pseudo-random generator.
///
/// The generator is `Clone` (cloning forks the exact stream state) and
/// fully deterministic given its seed. It is **not** cryptographically
/// secure; it exists to drive simulations.
///
/// # Example
///
/// ```
/// use synthattr_util::rng::Pcg64;
///
/// let mut a = Pcg64::new(42);
/// let mut b = Pcg64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg64 {
    state: u128,
}

impl Pcg64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // Standard PCG seeding: run the LCG once over the seed so that
        // small seeds do not produce correlated early output.
        let mut rng = Pcg64 {
            state: (seed as u128).wrapping_add(PCG_INC),
        };
        rng.step();
        rng
    }

    /// Derives an independent stream from a root seed and a label path.
    ///
    /// The derivation is an FNV-1a style fold over the labels, so
    /// `seed_from(s, &["a", "b"])` and `seed_from(s, &["ab"])` differ.
    ///
    /// # Example
    ///
    /// ```
    /// use synthattr_util::rng::Pcg64;
    /// let mut x = Pcg64::seed_from(7, &["corpus", "2017"]);
    /// let mut y = Pcg64::seed_from(7, &["corpus", "2018"]);
    /// assert_ne!(x.next_u64(), y.next_u64());
    /// ```
    pub fn seed_from(root: u64, path: &[&str]) -> Self {
        Pcg64::new(fold_labels(Fnv64(FNV_OFFSET ^ root), path))
    }

    /// Derives a child generator labelled by `path`, leaving `self`
    /// untouched. Useful for handing independent streams to parallel
    /// workers.
    pub fn fork(&self, path: &[&str]) -> Self {
        let state = (self.state >> 64) as u64 ^ self.state as u64;
        Pcg64::new(fold_labels(Fnv64(state), path))
    }

    #[inline]
    fn step(&mut self) {
        self.state = self.state.wrapping_mul(PCG_MUL).wrapping_add(PCG_INC);
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.step();
        let xored = ((self.state >> 64) as u64) ^ (self.state as u64);
        let rot = (self.state >> 122) as u32;
        xored.rotate_right(rot)
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 bits of mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "next_below bound must be positive");
        // Lemire-style rejection-free-enough reduction; bias is
        // negligible (< 2^-53) for the bounds used in this workspace,
        // but we keep the widening multiply for uniformity anyway.
        let b = bound as u64;
        let mut m = (self.next_u64() as u128).wrapping_mul(b as u128);
        let mut lo = m as u64;
        if lo < b {
            let threshold = b.wrapping_neg() % b;
            while lo < threshold {
                m = (self.next_u64() as u128).wrapping_mul(b as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as usize
    }

    /// Returns a uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn next_range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "next_range requires lo <= hi");
        let span = (hi - lo) as u64 as usize + 1;
        lo + self.next_below(span) as i64
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Chooses a uniformly random element of `items`.
    ///
    /// Returns `None` when `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.next_below(items.len())])
        }
    }

    /// Samples an index according to the (unnormalized, non-negative)
    /// weight vector.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to a non-positive value.
    pub fn choose_weighted(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "choose_weighted needs weights");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "choose_weighted needs positive total weight");
        let mut target = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            target -= w;
            if target < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffles `items` in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i + 1);
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` (k ≤ n) in random order.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct items from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        // Partial Fisher–Yates: only the first k positions are needed.
        for i in 0..k {
            let j = i + self.next_below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Draws from a normal distribution via the Box–Muller transform.
    pub fn next_gaussian(&mut self, mean: f64, std_dev: f64) -> f64 {
        // Avoid ln(0).
        let u1 = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        let mag = (-2.0 * u1.ln()).sqrt();
        mean + std_dev * mag * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// Folds a label path into `h`, FNV-1a style.
#[inline]
fn fold_labels(mut h: Fnv64, path: &[&str]) -> u64 {
    for label in path {
        // Separator byte keeps ["a","b"] distinct from ["ab"].
        h.write(&[0x1f]);
        h.write(label.as_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Pcg64::new(123);
        let mut b = Pcg64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Pcg64::new(1);
        let mut b = Pcg64::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should be effectively independent");
    }

    #[test]
    fn seed_path_separation() {
        let mut ab = Pcg64::seed_from(9, &["a", "b"]);
        let mut a_b = Pcg64::seed_from(9, &["ab"]);
        assert_ne!(ab.next_u64(), a_b.next_u64());
    }

    #[test]
    fn fork_is_stable_and_independent() {
        let root = Pcg64::new(5);
        let mut c1 = root.fork(&["x"]);
        let mut c2 = root.fork(&["x"]);
        let mut c3 = root.fork(&["y"]);
        assert_eq!(c1.next_u64(), c2.next_u64());
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Pcg64::new(77);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_bounds_and_coverage() {
        let mut rng = Pcg64::new(3);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[rng.next_below(7)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn next_range_inclusive() {
        let mut rng = Pcg64::new(8);
        let mut hit_lo = false;
        let mut hit_hi = false;
        for _ in 0..2_000 {
            let v = rng.next_range(-3, 3);
            assert!((-3..=3).contains(&v));
            hit_lo |= v == -3;
            hit_hi |= v == 3;
        }
        assert!(hit_lo && hit_hi);
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        Pcg64::new(0).next_below(0);
    }

    #[test]
    fn choose_weighted_respects_weights() {
        let mut rng = Pcg64::new(21);
        let weights = [0.0, 10.0, 0.0];
        for _ in 0..100 {
            assert_eq!(rng.choose_weighted(&weights), 1);
        }
        // Skewed weights should produce a skewed histogram.
        let weights = [8.0, 1.0, 1.0];
        let mut counts = [0usize; 3];
        for _ in 0..5_000 {
            counts[rng.choose_weighted(&weights)] += 1;
        }
        assert!(counts[0] > counts[1] * 3);
        assert!(counts[0] > counts[2] * 3);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Pcg64::new(11);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = Pcg64::new(14);
        let s = rng.sample_indices(20, 10);
        assert_eq!(s.len(), 10);
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
        assert!(dedup.iter().all(|&i| i < 20));
    }

    #[test]
    fn gaussian_moments_roughly_match() {
        let mut rng = Pcg64::new(99);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.next_gaussian(5.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean drifted: {mean}");
        assert!((var - 4.0).abs() < 0.3, "variance drifted: {var}");
    }

    #[test]
    fn choose_empty_is_none() {
        let mut rng = Pcg64::new(1);
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
    }
}
