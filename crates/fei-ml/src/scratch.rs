//! Preallocated gradient workspace for the fused training fast path.
//!
//! Every buffer the fused logistic-regression kernel needs — the flat
//! gradient, the per-chunk partial gradients its fixed pairwise tree
//! combines, the per-sample loss terms, and the `ChunkWork` buffers
//! (interleaved weights, logits row, error matrix, gather block, GEMM pack
//! scratch) — lives here, so a trainer that reuses one [`GradScratch`]
//! across epochs (and across rounds) performs **zero heap allocations per
//! epoch** in steady state. The evaluation pass
//! ([`crate::Model::evaluate_with`]) borrows the same weights and logits
//! row. The workspace also counts its own allocation events
//! (including those of the nested [`fei_math::MatScratch`] pack buffers),
//! which the perf harness reports in `BENCH_perf.json` (see EXPERIMENTS.md):
//! after warm-up, the counter must stop moving.

use fei_math::{reduce, MatScratch};

/// Grows `buf` to at least `need` elements, counting a heap allocation only
/// when the existing capacity is insufficient, then truncates to exactly
/// `need` so `chunks`-style iteration sees the active region only.
/// (Truncation never releases capacity, so a buffer sized by its largest
/// call stays allocation-free for smaller ones.)
fn ensure_exact(buf: &mut Vec<f64>, need: usize, allocations: &mut u64) {
    if buf.len() < need {
        if need > buf.capacity() {
            *allocations += 1;
        }
        buf.resize(need, 0.0);
    }
    buf.truncate(need);
}

/// The working buffers of the fused gradient kernel's chunk loop: the
/// interleaved weights, one logits row, the chunk's error matrix `E`
/// (`GRAD_CHUNK × num_classes`, row per sample), a gather block for
/// non-consecutive mini-batch chunks, and the pack scratch for the
/// `G += Eᵀ X` GEMM.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChunkWork {
    /// The `num_classes × dim` weights in
    /// [`reduce::interleave_rows`]'s layout, copied once per gradient
    /// step or evaluation pass.
    pub(crate) weights: Vec<f64>,
    /// Logits / probabilities row: `num_classes` long.
    pub(crate) logits: Vec<f64>,
    /// Softmax error rows for one chunk: `GRAD_CHUNK × num_classes`.
    pub(crate) errs: Vec<f64>,
    /// Gathered sample rows (`chunk_len × dim`) when the chunk's indices are
    /// not one consecutive run; sized lazily, so full-batch training never
    /// pays for it.
    pub(crate) xgather: Vec<f64>,
    /// Pack buffers for the chunk-gradient GEMM.
    pub(crate) pack: MatScratch,
    /// Samples forwarded through [`ChunkWork::logits`] so far.
    pub(crate) forward_passes: u64,
    allocations: u64,
}

impl ChunkWork {
    /// Readies a forward pass over the row-major weight block `w` (one
    /// row of `dim` per class): sizes the logits row and copies `w` into
    /// [`ChunkWork::weights`] in the layout the forward kernel streams.
    pub(crate) fn load_weights(&mut self, w: &[f64], dim: usize) {
        ensure_exact(&mut self.logits, w.len() / dim, &mut self.allocations);
        ensure_exact(&mut self.weights, w.len(), &mut self.allocations);
        reduce::interleave_rows(w, dim, &mut self.weights);
    }

    /// Sizes the chunk's error matrix.
    pub(crate) fn prepare(&mut self, num_classes: usize) {
        ensure_exact(
            &mut self.errs,
            crate::model::GRAD_CHUNK * num_classes,
            &mut self.allocations,
        );
    }

    /// Sizes the gather block for a `chunk_len × dim` copy and returns it.
    pub(crate) fn gather_block(&mut self, chunk_len: usize, dim: usize) -> &mut [f64] {
        ensure_exact(&mut self.xgather, chunk_len * dim, &mut self.allocations);
        &mut self.xgather
    }

    /// Allocation events of these buffers, pack scratch included.
    pub(crate) fn allocations(&self) -> u64 {
        self.allocations + self.pack.allocations()
    }
}

/// Reusable buffers for one trainer's gradient computations.
///
/// Buffers grow on demand (counted via [`GradScratch::allocations`]) and are
/// never shrunk, so a scratch sized by its first full-batch call stays
/// allocation-free for the rest of its life.
#[derive(Debug, Clone, Default)]
pub struct GradScratch {
    /// Final mean gradient, `num_params` long after a kernel call.
    grad: Vec<f64>,
    /// Flattened per-chunk unnormalized gradients: `n_chunks × num_params`.
    partials: Vec<f64>,
    /// Per-sample loss terms of the most recent kernel call, in batch
    /// order: `indices.len()` long.
    terms: Vec<f64>,
    /// Chunk-loop buffers for the gradient kernel and the evaluation pass.
    work: ChunkWork,
    /// Number of buffer-growth events since construction (this struct's own
    /// vectors; the chunk-loop buffers self-count and are summed in
    /// [`GradScratch::allocations`]).
    allocations: u64,
}

impl GradScratch {
    /// Creates an empty workspace; buffers are sized lazily by the first
    /// kernel call.
    pub fn new() -> Self {
        Self::default()
    }

    /// The gradient produced by the most recent kernel call.
    pub fn grad(&self) -> &[f64] {
        &self.grad
    }

    /// Each sample's loss term `log_sum_exp(logits) − logits[y]` from the
    /// most recent kernel call, in batch order. Empty when the model has no
    /// kernel that records them (the allocating fallback of
    /// [`crate::Model::loss_and_gradient_into`]).
    pub(crate) fn sample_losses(&self) -> &[f64] {
        &self.terms
    }

    /// Number of buffer-growth (heap allocation) events so far, across the
    /// scratch's own vectors and its chunk-loop buffers and GEMM pack
    /// scratch. Constant in steady state — the property the perf harness
    /// asserts.
    pub fn allocations(&self) -> u64 {
        self.allocations + self.work.allocations()
    }

    /// Samples forwarded through this workspace so far (one count per
    /// sample per pass: gradient kernel and evaluation alike). A pure
    /// function of the calls made, so tests pin the number of forward
    /// passes a job or a round performs independently of timing.
    pub fn forward_passes(&self) -> u64 {
        self.work.forward_passes
    }

    /// Sizes every buffer for a kernel invocation, zeroes the gradient
    /// accumulators (a fill, not an allocation, once capacity exists), and
    /// returns `(partials, terms, work)` truncated to the call's sizes. The
    /// kernel overwrites every term, so those are not cleared.
    pub(crate) fn prepare(
        &mut self,
        num_params: usize,
        num_classes: usize,
        n_chunks: usize,
        n_samples: usize,
    ) -> (&mut [f64], &mut [f64], &mut ChunkWork) {
        ensure_exact(&mut self.grad, num_params, &mut self.allocations);
        ensure_exact(
            &mut self.partials,
            n_chunks * num_params,
            &mut self.allocations,
        );
        ensure_exact(&mut self.terms, n_samples, &mut self.allocations);
        self.work.prepare(num_classes);
        self.partials.fill(0.0);
        (&mut self.partials, &mut self.terms, &mut self.work)
    }

    /// Closes a kernel invocation: combines the `n_chunks` per-chunk
    /// partials by the fixed pairwise tree, leaves the mean gradient in
    /// [`GradScratch::grad`], and returns the mean loss — the per-sample
    /// terms summed by one accumulator in batch order and divided by their
    /// count, the crate's one definition of a loss (so over the identity
    /// batch it is [`crate::Model::loss_with`] to the bit).
    pub(crate) fn reduce_mean(&mut self, num_params: usize, n_chunks: usize) -> f64 {
        reduce::tree_reduce_into_first(&mut self.partials, n_chunks, num_params);
        let n = self.terms.len() as f64;
        let inv_n = 1.0 / n;
        for (g, &p) in self.grad.iter_mut().zip(&self.partials[..num_params]) {
            *g = p * inv_n;
        }
        self.terms.iter().fold(0.0, |total, &term| total + term) / n
    }

    /// The chunk-loop buffers (the evaluation pass loads its weights and
    /// borrows their logits row).
    pub(crate) fn work(&mut self) -> &mut ChunkWork {
        &mut self.work
    }

    /// Stores an externally-computed gradient (the allocating fallback used
    /// by models without a fused kernel), which comes without per-sample
    /// loss terms. Always counts one allocation: the fallback allocated to
    /// produce `grad`.
    pub(crate) fn store_allocated_grad(&mut self, grad: Vec<f64>) {
        self.grad = grad;
        self.terms.clear();
        self.allocations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_prepare_allocates_once() {
        let mut s = GradScratch::new();
        s.prepare(100, 10, 4, 200);
        let after_first = s.allocations();
        assert!(after_first >= 1);
        for _ in 0..50 {
            s.prepare(100, 10, 4, 200);
        }
        assert_eq!(
            s.allocations(),
            after_first,
            "steady state must not allocate"
        );
    }

    #[test]
    fn growth_is_counted() {
        let mut s = GradScratch::new();
        s.prepare(10, 2, 1, 40);
        let small = s.allocations();
        s.prepare(1000, 2, 8, 500);
        assert!(s.allocations() > small);
    }

    #[test]
    fn prepare_zeroes_accumulators() {
        let mut s = GradScratch::new();
        {
            let (partials, _, _) = s.prepare(3, 2, 2, 100);
            partials.fill(7.0);
        }
        let (partials, terms, _) = s.prepare(3, 2, 2, 70);
        assert!(partials.iter().all(|&x| x == 0.0));
        assert_eq!(terms.len(), 70, "one term per sample of this call");
    }

    #[test]
    fn a_smaller_model_after_a_larger_one_gets_its_own_gradient_length() {
        let mut s = GradScratch::new();
        s.prepare(100, 10, 4, 200);
        s.reduce_mean(100, 4);
        let warm = s.allocations();
        s.prepare(10, 2, 1, 5);
        s.reduce_mean(10, 1);
        assert_eq!(s.grad().len(), 10, "one entry per parameter of this call");
        assert_eq!(s.allocations(), warm, "shrinking reuses the capacity");
    }

    #[test]
    fn fallback_counts_allocation() {
        let mut s = GradScratch::new();
        s.store_allocated_grad(vec![1.0, 2.0]);
        assert_eq!(s.grad(), &[1.0, 2.0]);
        assert_eq!(s.allocations(), 1);
    }

    #[test]
    fn fallback_gradient_comes_without_sample_losses() {
        let mut s = GradScratch::new();
        s.prepare(3, 2, 1, 5);
        assert_eq!(s.sample_losses().len(), 5);
        s.store_allocated_grad(vec![0.0; 3]);
        assert!(s.sample_losses().is_empty());
    }
}
