//! A dense labelled classification dataset.

use serde::{Deserialize, Serialize};

/// A dense dataset: `len` samples of dimension `dim`, each with a class label
/// in `0..num_classes`.
///
/// Features are stored flat in row-major order so training can stream over
/// them without pointer chasing.
///
/// # Example
///
/// ```
/// use fei_data::Dataset;
///
/// let ds = Dataset::from_parts(2, vec![0.0, 1.0, 1.0, 0.0], vec![0, 1], 2);
/// assert_eq!(ds.len(), 2);
/// assert_eq!(ds.sample(1), &[1.0, 0.0]);
/// assert_eq!(ds.label(1), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    dim: usize,
    num_classes: usize,
    features: Vec<f64>,
    labels: Vec<usize>,
}

impl Dataset {
    /// Builds a dataset from flat row-major features and per-sample labels.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`, `num_classes == 0`, the feature buffer is not a
    /// multiple of `dim`, the label count does not match the sample count, or
    /// any label is out of range.
    pub fn from_parts(
        dim: usize,
        features: Vec<f64>,
        labels: Vec<usize>,
        num_classes: usize,
    ) -> Self {
        assert!(dim > 0, "dimension must be non-zero");
        assert!(num_classes > 0, "need at least one class");
        assert_eq!(
            features.len() % dim,
            0,
            "feature buffer must be a multiple of dim"
        );
        assert_eq!(
            features.len() / dim,
            labels.len(),
            "labels must match sample count"
        );
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "labels must be < num_classes"
        );
        Self {
            dim,
            num_classes,
            features,
            labels,
        }
    }

    /// Creates an empty dataset with the given shape, to be `push`ed into.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `num_classes == 0`.
    pub fn empty(dim: usize, num_classes: usize) -> Self {
        Self::from_parts(dim, Vec::new(), Vec::new(), num_classes)
    }

    /// Appends one sample.
    ///
    /// # Panics
    ///
    /// Panics if the feature length or label is inconsistent with the shape.
    pub fn push(&mut self, features: &[f64], label: usize) {
        assert_eq!(features.len(), self.dim, "sample has wrong dimension");
        assert!(label < self.num_classes, "label {label} out of range");
        self.features.extend_from_slice(features);
        self.labels.push(label);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimension of each sample.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Features of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn sample(&self, i: usize) -> &[f64] {
        assert!(i < self.len(), "sample index {i} out of bounds");
        &self.features[i * self.dim..(i + 1) * self.dim]
    }

    /// Label of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The flat row-major feature buffer (`len × dim`): sample `i` occupies
    /// `[i * dim, (i + 1) * dim)`. Lets batch kernels that visit a
    /// consecutive run of samples borrow one contiguous block instead of
    /// gathering per-sample rows.
    pub fn features_flat(&self) -> &[f64] {
        &self.features
    }

    /// Iterator over `(features, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], usize)> + '_ {
        (0..self.len()).map(move |i| (self.sample(i), self.label(i)))
    }

    /// A new dataset containing the samples at `indices` (in that order).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub(crate) fn subset(&self, indices: &[usize]) -> Dataset {
        let mut out = Dataset::empty(self.dim, self.num_classes);
        for &i in indices {
            out.push(self.sample(i), self.label(i));
        }
        out
    }

    /// Splits into a head of `head_len` samples and the remaining tail.
    ///
    /// # Panics
    ///
    /// Panics if `head_len > self.len()`.
    pub fn split_at(&self, head_len: usize) -> (Dataset, Dataset) {
        assert!(head_len <= self.len(), "split beyond dataset length");
        let head: Vec<usize> = (0..head_len).collect();
        let tail: Vec<usize> = (head_len..self.len()).collect();
        (self.subset(&head), self.subset(&tail))
    }

    /// Per-class sample counts (length `num_classes`): the skew oracle the
    /// partition and generator tests measure with.
    #[cfg(test)]
    pub(crate) fn class_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.num_classes];
        for &l in &self.labels {
            hist[l] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        Dataset::from_parts(2, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0], vec![0, 1, 0], 2)
    }

    #[test]
    fn shape_accessors() {
        let ds = tiny();
        assert_eq!(ds.len(), 3);
        assert!(!ds.is_empty());
        assert_eq!(ds.dim(), 2);
        assert_eq!(ds.num_classes(), 2);
        assert_eq!(ds.sample(2), &[4.0, 5.0]);
        assert_eq!(ds.label(2), 0);
        assert_eq!(ds.labels(), &[0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn rejects_ragged_features() {
        let _ = Dataset::from_parts(2, vec![1.0, 2.0, 3.0], vec![0], 1);
    }

    #[test]
    #[should_panic(expected = "labels must match")]
    fn rejects_label_count_mismatch() {
        let _ = Dataset::from_parts(1, vec![1.0, 2.0], vec![0], 1);
    }

    #[test]
    #[should_panic(expected = "num_classes")]
    fn rejects_out_of_range_label() {
        let _ = Dataset::from_parts(1, vec![1.0], vec![5], 2);
    }

    #[test]
    fn push_appends() {
        let mut ds = Dataset::empty(2, 3);
        assert!(ds.is_empty());
        ds.push(&[1.0, 2.0], 2);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.sample(0), &[1.0, 2.0]);
        assert_eq!(ds.label(0), 2);
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn push_rejects_wrong_dim() {
        Dataset::empty(2, 3).push(&[1.0], 0);
    }

    #[test]
    fn iter_yields_all_pairs() {
        let ds = tiny();
        let pairs: Vec<(usize, usize)> = ds.iter().map(|(f, l)| (f.len(), l)).collect();
        assert_eq!(pairs, vec![(2, 0), (2, 1), (2, 0)]);
    }

    #[test]
    fn subset_selects_and_orders() {
        let ds = tiny();
        let sub = ds.subset(&[2, 0]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.sample(0), &[4.0, 5.0]);
        assert_eq!(sub.sample(1), &[0.0, 1.0]);
    }

    #[test]
    fn split_at_partitions() {
        let ds = tiny();
        let (head, tail) = ds.split_at(1);
        assert_eq!(head.len(), 1);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail.sample(0), &[2.0, 3.0]);
    }

    #[test]
    fn split_at_edges() {
        let ds = tiny();
        let (h, t) = ds.split_at(0);
        assert!(h.is_empty());
        assert_eq!(t.len(), 3);
        let (h, t) = ds.split_at(3);
        assert_eq!(h.len(), 3);
        assert!(t.is_empty());
    }

    #[test]
    fn class_histogram_counts() {
        assert_eq!(tiny().class_histogram(), vec![2, 1]);
    }
}
