//! Preallocated gradient workspace for the fused training fast path.
//!
//! Every buffer the fused logistic-regression kernel needs — the flat
//! gradient, per-chunk partial gradients, the per-sample loss terms, the
//! calling thread's `ChunkWork` buffers (logits row, error matrix, gather
//! block, GEMM pack scratch), and the per-worker `BandState`s plus model
//! snapshot used by the pooled kernel — lives here, so a trainer that reuses one
//! [`GradScratch`] across epochs (and across rounds) performs **zero heap
//! allocations per epoch** in steady state. The evaluation pass
//! ([`crate::Model::evaluate_with`]) borrows the same logits row. The
//! workspace also counts its own
//! allocation events (including those of the nested
//! [`fei_math::MatScratch`] pack buffers), which the perf harness reports in
//! `BENCH_perf.json` (see EXPERIMENTS.md): after warm-up, the counter must
//! stop moving.

use std::sync::Arc;

use fei_math::{reduce, MatScratch};

use crate::model::LogisticRegression;

/// Grows `buf` to at least `need` elements, counting a heap allocation only
/// when the existing capacity is insufficient, then truncates to exactly
/// `need` so `chunks`-style iteration sees the active region only.
/// (Truncation never releases capacity, so a buffer sized by its largest
/// call stays allocation-free for smaller ones.)
fn ensure_exact<T: Clone + Default>(buf: &mut Vec<T>, need: usize, allocations: &mut u64) {
    if buf.len() < need {
        if need > buf.capacity() {
            *allocations += 1;
        }
        buf.resize(need, T::default());
    }
    buf.truncate(need);
}

/// One thread's working buffers for the fused gradient kernel's chunk loop:
/// one logits row, the chunk's error matrix `E` (`GRAD_CHUNK × num_classes`,
/// row per sample), a gather block for non-consecutive mini-batch chunks,
/// and the pack scratch for the `G += Eᵀ X` GEMM.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChunkWork {
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
    /// Sizes the logits row and returns it.
    pub(crate) fn logits_row(&mut self, num_classes: usize) -> &mut [f64] {
        ensure_exact(&mut self.logits, num_classes, &mut self.allocations);
        &mut self.logits
    }

    /// Sizes the fixed-shape buffers (logits row, error matrix).
    pub(crate) fn prepare(&mut self, num_classes: usize) {
        self.logits_row(num_classes);
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

    /// Allocation events of this worker's buffers, pack scratch included.
    pub(crate) fn allocations(&self) -> u64 {
        self.allocations + self.pack.allocations()
    }
}

/// Everything one pool worker owns while computing its band of chunks:
/// partial gradients and per-sample loss terms for the band, the band's
/// sample indices, and its [`ChunkWork`]. The state is `take`n out of the scratch, moved
/// into the pool job, and returned through the caller's result channel, so
/// the buffers survive (and stay warm) across gradient steps without any
/// shared-memory aliasing between workers.
#[derive(Debug, Clone, Default)]
pub(crate) struct BandState {
    /// Flattened per-chunk unnormalized gradients: `band_chunks × num_params`.
    pub(crate) partials: Vec<f64>,
    /// Per-sample loss terms, parallel to `indices`.
    pub(crate) terms: Vec<f64>,
    /// The band's sample indices (a contiguous slice of the batch order).
    pub(crate) indices: Vec<usize>,
    /// The worker's chunk-loop buffers.
    pub(crate) work: ChunkWork,
    allocations: u64,
}

impl BandState {
    /// Sizes the band for `band_chunks` chunks covering `band_indices`,
    /// zeroes the gradient accumulators, and copies the indices in.
    pub(crate) fn load(
        &mut self,
        num_params: usize,
        num_classes: usize,
        band_chunks: usize,
        band_indices: &[usize],
    ) {
        ensure_exact(
            &mut self.partials,
            band_chunks * num_params,
            &mut self.allocations,
        );
        self.partials.fill(0.0);
        ensure_exact(&mut self.terms, band_indices.len(), &mut self.allocations);
        ensure_exact(&mut self.indices, band_indices.len(), &mut self.allocations);
        self.indices.copy_from_slice(band_indices);
        self.work.prepare(num_classes);
    }

    /// Allocation events of this band's buffers, worker buffers included.
    pub(crate) fn allocations(&self) -> u64 {
        self.allocations + self.work.allocations()
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
    /// Chunk-loop buffers for the serial kernel and the evaluation pass.
    work: ChunkWork,
    /// Per-worker band states for the pooled path.
    bands: Vec<BandState>,
    /// Immutable parameter snapshot shared with pool workers. Outside a
    /// pooled kernel call the scratch holds the only handle, so the next
    /// call can refresh it in place via [`Arc::get_mut`] without allocating.
    snapshot: Option<Arc<LogisticRegression>>,
    /// Number of buffer-growth events since construction (this struct's own
    /// vectors; nested worker buffers self-count and are summed in
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
    /// scratch's own vectors, every worker's chunk buffers and GEMM pack
    /// scratch, every pooled band, and the snapshot. Constant in steady
    /// state — the property the perf harness asserts.
    pub fn allocations(&self) -> u64 {
        self.allocations
            + self.work.allocations()
            + self.bands.iter().map(BandState::allocations).sum::<u64>()
    }

    /// Samples forwarded through this workspace so far (one count per
    /// sample per pass: gradient kernel, pooled bands and evaluation
    /// alike). A pure function of the calls made, so tests pin the number
    /// of forward passes a job or a round performs independently of timing.
    pub fn forward_passes(&self) -> u64 {
        self.work.forward_passes
            + self
                .bands
                .iter()
                .map(|band| band.work.forward_passes)
                .sum::<u64>()
    }

    /// Grows `buf` to at least `need` elements, counting a heap allocation
    /// only when the existing capacity is insufficient.
    fn ensure(buf: &mut Vec<f64>, need: usize, allocations: &mut u64) {
        if buf.len() < need {
            if need > buf.capacity() {
                *allocations += 1;
            }
            buf.resize(need, 0.0);
        }
    }

    /// Sizes the reduction buffers for `n_chunks` chunks of a `num_params`
    /// gradient over `n_samples` samples (a no-op once capacity exists).
    fn ensure_reduction(&mut self, num_params: usize, n_chunks: usize, n_samples: usize) {
        Self::ensure(&mut self.grad, num_params, &mut self.allocations);
        Self::ensure(
            &mut self.partials,
            n_chunks * num_params,
            &mut self.allocations,
        );
        ensure_exact(&mut self.terms, n_samples, &mut self.allocations);
    }

    /// Sizes every buffer for a serial kernel invocation, zeroes the
    /// gradient accumulators (a fill, not an allocation, once capacity
    /// exists), and returns `(partials, terms, work)` truncated to the
    /// call's sizes. The kernel overwrites every term, so those are not
    /// cleared.
    pub(crate) fn prepare(
        &mut self,
        num_params: usize,
        num_classes: usize,
        n_chunks: usize,
        n_samples: usize,
    ) -> (&mut [f64], &mut [f64], &mut ChunkWork) {
        self.ensure_reduction(num_params, n_chunks, n_samples);
        self.work.prepare(num_classes);
        let partials = &mut self.partials[..n_chunks * num_params];
        partials.fill(0.0);
        (partials, &mut self.terms[..], &mut self.work)
    }

    /// Closes a kernel invocation, serial or pooled: combines the
    /// `n_chunks` per-chunk partials by the fixed pairwise tree, leaves the
    /// mean gradient in [`GradScratch::grad`], and returns the mean loss —
    /// the per-sample terms summed by one accumulator in batch order and
    /// divided by their count, the crate's one definition of a loss (so
    /// over the identity batch it is [`crate::Model::loss_with`] to the
    /// bit).
    pub(crate) fn reduce_mean(&mut self, num_params: usize, n_chunks: usize) -> f64 {
        let partials = &mut self.partials[..n_chunks * num_params];
        reduce::tree_reduce_into_first(partials, n_chunks, num_params);
        let n = self.terms.len() as f64;
        let inv_n = 1.0 / n;
        for (g, &p) in self.grad[..num_params]
            .iter_mut()
            .zip(&partials[..num_params])
        {
            *g = p * inv_n;
        }
        self.terms.iter().fold(0.0, |total, &term| total + term) / n
    }

    /// The calling thread's [`ChunkWork`] (the evaluation pass sizes and
    /// borrows its logits row).
    pub(crate) fn work(&mut self) -> &mut ChunkWork {
        &mut self.work
    }

    /// Sizes the reduction buffers and band table for a pooled kernel call.
    /// Band partials are zeroed per band in [`BandState::load`]; the main
    /// `partials`/`terms` regions are fully overwritten by
    /// [`GradScratch::absorb_band`] copies, so they are *not* zero-filled
    /// here.
    pub(crate) fn prepare_pooled(
        &mut self,
        num_params: usize,
        n_chunks: usize,
        n_samples: usize,
        workers: usize,
    ) {
        self.ensure_reduction(num_params, n_chunks, n_samples);
        if self.bands.len() < workers {
            self.allocations += 1;
            self.bands.resize_with(workers, BandState::default);
        }
    }

    /// Moves band `w`'s state out so it can be shipped into a pool job.
    pub(crate) fn take_band(&mut self, w: usize) -> BandState {
        std::mem::take(&mut self.bands[w])
    }

    /// Returns a computed band: copies its partial gradients and its loss
    /// terms into the band's slots of the main reduction buffers (band `w`
    /// covers chunks `[start_chunk, start_chunk + band_chunks)`, so its
    /// samples start at `start_chunk * GRAD_CHUNK`) and stores the buffers
    /// for reuse by the next call.
    pub(crate) fn absorb_band(
        &mut self,
        w: usize,
        state: BandState,
        num_params: usize,
        start_chunk: usize,
        band_chunks: usize,
    ) {
        let p0 = start_chunk * num_params;
        let plen = band_chunks * num_params;
        self.partials[p0..p0 + plen].copy_from_slice(&state.partials[..plen]);
        let s0 = start_chunk * crate::model::GRAD_CHUNK;
        self.terms[s0..s0 + state.terms.len()].copy_from_slice(&state.terms);
        self.bands[w] = state;
    }

    /// A shared snapshot of `model` for pool workers. Refreshed in place
    /// (no allocation) when the scratch holds the sole handle and the shape
    /// matches; cloned fresh (counted) otherwise — the cold path on first
    /// use or after a worker panic leaked a handle.
    pub(crate) fn refresh_snapshot(
        &mut self,
        model: &LogisticRegression,
    ) -> Arc<LogisticRegression> {
        let reused = match self.snapshot.as_mut().and_then(Arc::get_mut) {
            Some(snap)
                if snap.dim() == model.dim() && snap.num_classes() == model.num_classes() =>
            {
                snap.set_flat(model.to_flat());
                true
            }
            _ => false,
        };
        if !reused {
            self.allocations += 1;
            self.snapshot = Some(Arc::new(model.clone()));
        }
        Arc::clone(
            self.snapshot
                .as_ref()
                .expect("invariant: snapshot installed just above"),
        )
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

    #[test]
    fn pooled_band_round_trip_is_allocation_free_when_warm() {
        // Band 0 holds two full chunks, band 1 one 4-sample partial chunk.
        let np = 12;
        let round_trip = |s: &mut GradScratch| {
            let chunk = crate::model::GRAD_CHUNK;
            let indices: Vec<usize> = (0..2 * chunk + 4).collect();
            s.prepare_pooled(np, 3, indices.len(), 2);
            for (w, (chunks, span)) in [(2, 0..2 * chunk), (1, 2 * chunk..2 * chunk + 4)]
                .into_iter()
                .enumerate()
            {
                let mut band = s.take_band(w);
                band.load(np, 3, chunks, &indices[span]);
                band.partials.fill(w as f64 + 1.0);
                band.terms.fill(w as f64 + 1.0);
                s.absorb_band(w, band, np, w * 2, chunks);
            }
        };
        let mut s = GradScratch::new();
        for _ in 0..3 {
            round_trip(&mut s);
        }
        let warm = s.allocations();
        round_trip(&mut s);
        assert_eq!(s.allocations(), warm, "warm pooled bands must not allocate");
        assert_eq!(s.partials[0], 1.0, "band 0 copied into chunk slot 0");
        assert_eq!(s.partials[2 * np], 2.0, "band 1 copied into chunk slot 2");
        let chunk = crate::model::GRAD_CHUNK;
        assert_eq!(s.sample_losses().len(), 2 * chunk + 4);
        assert_eq!(s.sample_losses()[2 * chunk - 1], 1.0, "band 0's last term");
        assert_eq!(s.sample_losses()[2 * chunk], 2.0, "band 1's first term");
    }

    #[test]
    fn snapshot_refresh_reuses_the_sole_handle() {
        let mut s = GradScratch::new();
        let mut model = LogisticRegression::zeros(3, 2);
        let first = s.refresh_snapshot(&model);
        let after_first = s.allocations();
        drop(first);
        model.set_flat(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.5, -0.5]);
        let second = s.refresh_snapshot(&model);
        assert_eq!(second.to_flat(), model.to_flat());
        assert_eq!(
            s.allocations(),
            after_first,
            "refresh with a sole handle must not allocate"
        );
        // A leaked handle forces (and counts) a fresh clone.
        let _leak = Arc::clone(&second);
        drop(second);
        let third = s.refresh_snapshot(&model);
        assert_eq!(third.to_flat(), model.to_flat());
        assert!(s.allocations() > after_first);
    }
}
