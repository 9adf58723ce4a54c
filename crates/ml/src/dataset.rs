//! Labelled feature matrices.

/// A dense, labelled dataset: `n` rows of `d` features with integer
/// class labels in `[0, n_classes)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    rows: Vec<Vec<f64>>,
    labels: Vec<usize>,
    n_classes: usize,
}

impl Dataset {
    /// Creates an empty dataset expecting labels in `[0, n_classes)`.
    pub fn new(n_classes: usize) -> Self {
        Dataset {
            rows: Vec::new(),
            labels: Vec::new(),
            n_classes,
        }
    }

    /// Builds a dataset from parallel row/label vectors.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ, rows have inconsistent dimension, a
    /// label is out of range, or any feature value is non-finite.
    pub fn from_parts(rows: Vec<Vec<f64>>, labels: Vec<usize>, n_classes: usize) -> Self {
        assert_eq!(rows.len(), labels.len(), "rows and labels must align");
        if let Some(d) = rows.first().map(Vec::len) {
            assert!(
                rows.iter().all(|r| r.len() == d),
                "inconsistent feature dimension"
            );
        }
        assert!(labels.iter().all(|&l| l < n_classes), "label out of range");
        for row in &rows {
            assert_finite(row);
        }
        Dataset {
            rows,
            labels,
            n_classes,
        }
    }

    /// Appends one sample.
    ///
    /// # Panics
    ///
    /// Panics if `label >= n_classes`, the dimension differs from
    /// existing rows, or any feature value is NaN/infinite (the
    /// downstream classifiers assume finite features; rejecting
    /// corruption here keeps the oracle from silently training on it).
    pub fn push(&mut self, features: Vec<f64>, label: usize) {
        assert!(label < self.n_classes, "label {label} out of range");
        if let Some(first) = self.rows.first() {
            assert_eq!(first.len(), features.len(), "feature dimension mismatch");
        }
        assert_finite(&features);
        self.rows.push(features);
        self.labels.push(label);
    }

    /// Test-only escape hatch that skips the finite-features check, so
    /// NaN-robustness regression tests can build corrupt datasets.
    #[cfg(test)]
    pub(crate) fn push_unchecked(&mut self, features: Vec<f64>, label: usize) {
        assert!(label < self.n_classes, "label {label} out of range");
        self.rows.push(features);
        self.labels.push(label);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Feature dimension (0 when empty).
    pub fn dim(&self) -> usize {
        self.rows.first().map_or(0, Vec::len)
    }

    /// Number of classes the label space admits.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Row `i`'s features.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.rows[i]
    }

    /// Row `i`'s label.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Takes the dataset apart into its rows, labels and class count.
    pub(crate) fn into_parts(self) -> (Vec<Vec<f64>>, Vec<usize>, usize) {
        (self.rows, self.labels, self.n_classes)
    }

    /// Per-class sample counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// A new dataset containing the given row indices (in order).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            rows: indices.iter().map(|&i| self.rows[i].clone()).collect(),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            n_classes: self.n_classes,
        }
    }

    /// A new dataset keeping only the feature columns in `columns`.
    pub fn project(&self, columns: &[usize]) -> Dataset {
        Dataset {
            rows: self
                .rows
                .iter()
                .map(|r| columns.iter().map(|&c| r[c]).collect())
                .collect(),
            labels: self.labels.clone(),
            n_classes: self.n_classes,
        }
    }

    /// Merges another dataset with the same dimension and class space.
    ///
    /// # Panics
    ///
    /// Panics on dimension or class-space mismatch.
    pub fn extend_from(&mut self, other: &Dataset) {
        assert_eq!(self.n_classes, other.n_classes, "class space mismatch");
        if !self.is_empty() && !other.is_empty() {
            assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        }
        self.rows.extend(other.rows.iter().cloned());
        self.labels.extend_from_slice(&other.labels);
    }
}

/// Rejects NaN/±∞ at the dataset boundary.
fn assert_finite(features: &[f64]) {
    if let Some(pos) = features.iter().position(|v| !v.is_finite()) {
        panic!(
            "non-finite feature value {} at column {pos}: features must be finite",
            features[pos]
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        let mut ds = Dataset::new(3);
        ds.push(vec![0.0, 1.0], 0);
        ds.push(vec![1.0, 0.0], 1);
        ds.push(vec![2.0, 2.0], 2);
        ds.push(vec![0.1, 0.9], 0);
        ds
    }

    #[test]
    fn push_and_accessors() {
        let ds = tiny();
        assert_eq!(ds.len(), 4);
        assert_eq!(ds.dim(), 2);
        assert_eq!(ds.n_classes(), 3);
        assert_eq!(ds.row(1), &[1.0, 0.0]);
        assert_eq!(ds.label(2), 2);
        assert_eq!(ds.class_counts(), vec![2, 1, 1]);
        assert!(!ds.is_empty());
    }

    #[test]
    #[should_panic(expected = "label 3 out of range")]
    fn push_rejects_bad_label() {
        tiny().push(vec![0.0, 0.0], 3);
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn push_rejects_bad_dim() {
        tiny().push(vec![0.0], 0);
    }

    #[test]
    fn subset_selects_rows_in_order() {
        let ds = tiny();
        let sub = ds.subset(&[2, 0]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.label(0), 2);
        assert_eq!(sub.row(1), &[0.0, 1.0]);
    }

    #[test]
    fn project_selects_columns() {
        let ds = tiny();
        let p = ds.project(&[1]);
        assert_eq!(p.dim(), 1);
        assert_eq!(p.row(0), &[1.0]);
        assert_eq!(p.labels(), ds.labels());
    }

    #[test]
    fn extend_from_appends() {
        let mut a = tiny();
        let b = tiny();
        a.extend_from(&b);
        assert_eq!(a.len(), 8);
        assert_eq!(a.class_counts(), vec![4, 2, 2]);
    }

    #[test]
    fn from_parts_validates() {
        let ds = Dataset::from_parts(vec![vec![1.0], vec![2.0]], vec![0, 1], 2);
        assert_eq!(ds.len(), 2);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn from_parts_rejects_bad_labels() {
        Dataset::from_parts(vec![vec![1.0]], vec![5], 2);
    }

    #[test]
    #[should_panic(expected = "non-finite feature value")]
    fn push_rejects_nan() {
        tiny().push(vec![0.0, f64::NAN], 0);
    }

    #[test]
    #[should_panic(expected = "non-finite feature value")]
    fn push_rejects_infinity() {
        tiny().push(vec![f64::INFINITY, 0.0], 0);
    }

    #[test]
    #[should_panic(expected = "non-finite feature value")]
    fn from_parts_rejects_nan() {
        Dataset::from_parts(vec![vec![1.0], vec![f64::NAN]], vec![0, 1], 2);
    }

    #[test]
    fn push_unchecked_bypasses_validation_for_tests() {
        let mut ds = tiny();
        ds.push_unchecked(vec![f64::NAN, 0.0], 0);
        assert_eq!(ds.len(), 5);
        assert!(ds.row(4)[0].is_nan());
    }
}
