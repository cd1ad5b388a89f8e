//! The multinomial logistic-regression model.

use std::sync::Arc;

use fei_data::Dataset;
use fei_math::func::{argmax, log_sum_exp, softmax_in_place};
use fei_math::matrix::dot;
use fei_math::pack::{packed_gemm, AOrder};
use fei_math::reduce;
use serde::{Deserialize, Serialize};

use crate::metrics::Evaluation;
use crate::pool::WorkerPool;
use crate::scratch::{BandState, ChunkWork, GradScratch};

/// Samples per fixed-shape chunk in the fused gradient kernel.
///
/// The fused path computes one unnormalized partial gradient per chunk and
/// combines the partials with a fixed pairwise tree
/// ([`fei_math::reduce::tree_reduce_into_first`]). Because the chunking is a
/// pure function of the batch length — never of thread count — the serial
/// and parallel evaluations produce the same bits. The value is part of the
/// numeric contract pinned by the golden-model suite, so it is fixed and
/// public.
pub(crate) const GRAD_CHUNK: usize = 64;

/// Multinomial logistic regression: `logits = W x + b`, class probabilities
/// via softmax.
///
/// Parameters are a `num_classes × dim` weight matrix plus a bias vector.
/// [`LogisticRegression::to_flat`] / [`LogisticRegression::from_flat`]
/// expose the parameters as one flat vector — the unit of exchange for
/// FedAvg aggregation and network transfer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogisticRegression {
    dim: usize,
    num_classes: usize,
    /// Flat row-major `num_classes × dim` weights followed by `num_classes`
    /// biases.
    params: Vec<f64>,
}

impl LogisticRegression {
    /// Creates a zero-initialized model (the paper's starting point `ω₀`).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `num_classes < 2`.
    pub fn zeros(dim: usize, num_classes: usize) -> Self {
        assert!(dim > 0, "dimension must be non-zero");
        assert!(num_classes >= 2, "need at least two classes");
        Self {
            dim,
            num_classes,
            params: vec![0.0; num_classes * dim + num_classes],
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Total number of parameters (weights + biases).
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Size in bytes of the flat `f64` parameter block (the model-upload
    /// payload of step (3) in the paper).
    pub fn payload_bytes(&self) -> usize {
        self.params.len() * std::mem::size_of::<f64>()
    }

    /// Borrows the flat parameter vector.
    pub fn to_flat(&self) -> &[f64] {
        &self.params
    }

    /// Replaces the parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if the length does not match [`LogisticRegression::num_params`].
    pub fn set_flat(&mut self, flat: &[f64]) {
        assert_eq!(
            flat.len(),
            self.params.len(),
            "flat parameter length mismatch"
        );
        self.params.copy_from_slice(flat);
    }

    /// Builds a model of the given shape from a flat parameter vector.
    ///
    /// # Panics
    ///
    /// Panics if the length does not match the shape.
    pub fn from_flat(dim: usize, num_classes: usize, flat: Vec<f64>) -> Self {
        let mut m = Self::zeros(dim, num_classes);
        m.set_flat(&flat);
        m
    }

    /// Weight row for `class` (length `dim`).
    fn weights_row(&self, class: usize) -> &[f64] {
        &self.params[class * self.dim..(class + 1) * self.dim]
    }

    /// Bias for `class`.
    fn bias(&self, class: usize) -> f64 {
        self.params[self.num_classes * self.dim + class]
    }

    /// Raw logits `W x + b` for one sample. With
    /// `LogisticRegression::predict` this is the single-sample API;
    /// anything that walks a dataset goes through the buffer-reusing
    /// `LogisticRegression::evaluate_with` or the gradient kernels.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn logits(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim, "input has wrong dimension");
        (0..self.num_classes)
            .map(|c| dot(self.weights_row(c), x) + self.bias(c))
            .collect()
    }

    /// [`LogisticRegression::logits`] into a caller-provided row. Pairs of
    /// weight rows go through [`fei_math::reduce::dot2`], which shares each
    /// load of `x` between two rows; `dot2` is bit-identical to two
    /// [`dot`] calls, so this matches the allocating version exactly.
    fn logits_into(&self, x: &[f64], logits: &mut [f64]) {
        let nc = self.num_classes;
        let mut c = 0;
        while c + 1 < nc {
            let (d0, d1) = reduce::dot2(self.weights_row(c), self.weights_row(c + 1), x);
            logits[c] = d0 + self.bias(c);
            logits[c + 1] = d1 + self.bias(c + 1);
            c += 2;
        }
        if c < nc {
            logits[c] = dot(self.weights_row(c), x) + self.bias(c);
        }
    }

    /// Most likely class for one sample.
    pub(crate) fn predict(&self, x: &[f64]) -> usize {
        argmax(&self.logits(x))
    }

    /// Mean cross-entropy loss (the local loss `F_k`, Eq. 1) and accuracy
    /// over a dataset, from **one** forward pass per sample — the crate's
    /// only dataset-level forward loop outside the gradient kernels. Logits
    /// land in the workspace's reused row (paired striped dots, no
    /// allocation once `scratch` is warm); the loss terms go into a single
    /// accumulator in sample order and are divided by `n`, and a sample
    /// counts as correct when [`argmax`] (first on ties) hits its label.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or its shape mismatches the model.
    pub(crate) fn evaluate_with(&self, data: &Dataset, scratch: &mut GradScratch) -> Evaluation {
        assert!(!data.is_empty(), "evaluation over empty dataset");
        self.check_shape(data);
        let work = scratch.work();
        work.forward_passes += data.len() as u64;
        let logits = work.logits_row(self.num_classes);
        let mut total = 0.0;
        let mut correct = 0usize;
        for (x, y) in data.iter() {
            self.logits_into(x, logits);
            total += log_sum_exp(logits) - logits[y];
            correct += usize::from(argmax(logits) == y);
        }
        let n = data.len() as f64;
        Evaluation {
            loss: total / n,
            accuracy: correct as f64 / n,
        }
    }

    /// The loss half of `LogisticRegression::evaluate_with` against a
    /// throwaway workspace.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or its shape mismatches the model.
    pub fn loss(&self, data: &Dataset) -> f64 {
        self.loss_with(data, &mut GradScratch::new())
    }

    /// The loss half of [`LogisticRegression::evaluate_with`]: what the
    /// trainer and the round driver call against their long-lived
    /// workspaces.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or its shape mismatches the model.
    pub(crate) fn loss_with(&self, data: &Dataset, scratch: &mut GradScratch) -> f64 {
        self.evaluate_with(data, scratch).loss
    }

    /// Mean cross-entropy loss and its gradient over `indices` of `data`
    /// (full batch when `indices` covers the dataset).
    ///
    /// This is the **reference (naive) kernel**: per-sample logit allocation,
    /// serial dot products, one serial accumulator — the pre-fast-path
    /// arithmetic, kept intact as the baseline that
    /// [`crate::optimizer::GradReduction::Naive`] dispatches to and the perf
    /// harness measures `speedup_vs_naive` against. Hot paths should use
    /// [`LogisticRegression::fused_loss_and_gradient_into`].
    ///
    /// The gradient is returned flat, in the same layout as
    /// [`LogisticRegression::to_flat`].
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or out of bounds, or shapes mismatch.
    pub(crate) fn loss_and_gradient(&self, data: &Dataset, indices: &[usize]) -> (f64, Vec<f64>) {
        assert!(!indices.is_empty(), "gradient over empty batch");
        self.check_shape(data);
        let mut grad = vec![0.0; self.params.len()];
        let mut total_loss = 0.0;
        let bias_base = self.num_classes * self.dim;
        for &i in indices {
            let x = data.sample(i);
            let y = data.label(i);
            let logits: Vec<f64> = (0..self.num_classes)
                .map(|c| reduce::dot_serial(self.weights_row(c), x) + self.bias(c))
                .collect();
            total_loss += log_sum_exp(&logits) - logits[y];
            let mut probs = logits;
            softmax_in_place(&mut probs);
            for (c, &p) in probs.iter().enumerate() {
                let err = p - f64::from(u8::from(c == y));
                // fei-lint: allow(float-eq, reason = "exact-zero gradient sparsity skip mirrored by the packed kernel, keeping the fused path bit-identical; a tolerance would bias the gradient")
                if err == 0.0 {
                    continue;
                }
                let row = &mut grad[c * self.dim..(c + 1) * self.dim];
                for (g, &xi) in row.iter_mut().zip(x) {
                    *g += err * xi;
                }
                grad[bias_base + c] += err;
            }
        }
        let inv_n = 1.0 / indices.len() as f64;
        for g in &mut grad {
            *g *= inv_n;
        }
        (total_loss * inv_n, grad)
    }

    /// Fused single-pass loss + gradient into a reused workspace: per sample,
    /// logits → softmax → gradient accumulation run back-to-back against
    /// scratch buffers, with zero heap allocations once `scratch` is warm.
    ///
    /// The batch is split into fixed [`GRAD_CHUNK`]-sample chunks; each chunk
    /// accumulates an unnormalized partial gradient and records its
    /// samples' loss terms, and the partials are combined by the fixed
    /// pairwise tree in [`fei_math::reduce`]. This is the serial reference:
    /// every chunk runs on the calling thread. Each chunk's arithmetic and
    /// the combination schedule are pure functions of `indices.len()`,
    /// which is what lets
    /// [`LogisticRegression::pooled_loss_and_gradient_into`] deal the same
    /// chunks to pool workers and land on **the same bits for every pool
    /// size**.
    ///
    /// Returns the mean loss of the batch under the current parameters —
    /// the recorded per-sample terms summed in batch order and divided by
    /// their count, so over the identity batch it equals
    /// [`LogisticRegression::loss_with`] bit for bit. The mean gradient is
    /// left in `scratch.grad()`.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or out of bounds, or shapes mismatch.
    pub(crate) fn fused_loss_and_gradient_into(
        &self,
        data: &Dataset,
        indices: &[usize],
        scratch: &mut GradScratch,
    ) -> f64 {
        assert!(!indices.is_empty(), "gradient over empty batch");
        self.check_shape(data);
        let np = self.params.len();
        let n_chunks = indices.len().div_ceil(GRAD_CHUNK);
        let (partials, terms, work) =
            scratch.prepare(np, self.num_classes, n_chunks, indices.len());
        for ((chunk, part), terms) in indices
            .chunks(GRAD_CHUNK)
            .zip(partials.chunks_mut(np))
            .zip(terms.chunks_mut(GRAD_CHUNK))
        {
            self.grad_chunk_into(data, chunk, part, terms, work);
        }
        scratch.reduce_mean(np, n_chunks)
    }

    /// One chunk of the fused kernel: accumulates the unnormalized gradient
    /// of `chunk` into `out` and writes each sample's loss term into
    /// `terms`. Pure in `(self, data, chunk)`, which is what makes
    /// chunk-to-thread assignment irrelevant to the result.
    ///
    /// Two phases. **Phase A** walks the chunk's samples in order: logits
    /// (paired striped dots), the loss term, softmax, the error row
    /// `E[s, ·]`, and the bias gradients. **Phase B** accumulates the whole
    /// weight-block gradient as one packed GEMM, `G += Eᵀ X`, over the
    /// chunk's sample rows. The packed kernel adds contributions `k`(=sample)-ascending
    /// per output element with an exact per-`(i, k)` zero skip on `E` —
    /// precisely the order and skip of the historical per-sample loop — so
    /// the restructure changes throughput, not a single output bit.
    fn grad_chunk_into(
        &self,
        data: &Dataset,
        chunk: &[usize],
        out: &mut [f64],
        terms: &mut [f64],
        work: &mut ChunkWork,
    ) {
        let nc = self.num_classes;
        let dim = self.dim;
        let bias_base = nc * dim;
        let m = chunk.len();
        work.forward_passes += m as u64;

        // Phase A: per-sample logits → loss → softmax → error row + bias grad.
        for (s, &i) in chunk.iter().enumerate() {
            let x = data.sample(i);
            let y = data.label(i);
            let logits = &mut work.logits[..nc];
            self.logits_into(x, logits);
            terms[s] = log_sum_exp(logits) - logits[y];
            softmax_in_place(logits);
            for c in 0..nc {
                let err = work.logits[c] - f64::from(u8::from(c == y));
                work.errs[s * nc + c] = err;
                // fei-lint: allow(float-eq, reason = "exact-zero gradient sparsity skip mirrored by the packed kernel, keeping the fused path bit-identical; a tolerance would bias the gradient")
                if err == 0.0 {
                    continue;
                }
                out[bias_base + c] += err;
            }
        }

        // Phase B: weight-block gradient as a packed GEMM. A full-batch
        // chunk is a consecutive index run, so X is borrowed straight from
        // the dataset's flat feature buffer; shuffled mini-batch chunks
        // gather their rows into the reusable block first.
        let consecutive = chunk.windows(2).all(|w| w[1] == w[0] + 1);
        let errs = &work.errs[..m * nc];
        if consecutive {
            let i0 = chunk[0];
            let x_block = &data.features_flat()[i0 * dim..(i0 + m) * dim];
            packed_gemm(
                errs,
                AOrder::Transposed,
                x_block,
                &mut out[..bias_base],
                nc,
                m,
                dim,
                &mut work.pack,
            );
        } else {
            let x_block = work.gather_block(m, dim);
            for (s, &i) in chunk.iter().enumerate() {
                x_block[s * dim..(s + 1) * dim].copy_from_slice(data.sample(i));
            }
            let errs = &work.errs[..m * nc];
            packed_gemm(
                errs,
                AOrder::Transposed,
                &work.xgather[..m * dim],
                &mut out[..bias_base],
                nc,
                m,
                dim,
                &mut work.pack,
            );
        }
    }

    /// [`LogisticRegression::fused_loss_and_gradient_into`] on a persistent
    /// [`WorkerPool`] — the one parallel gradient path. The batch is dealt
    /// to `min(pool.size(), n_chunks)` contiguous chunk bands by a static
    /// `base + (w < extra)` formula (band boundaries decide only which
    /// worker computes a chunk, never its content or the reduction order),
    /// each band is computed by pool worker `w` against worker-owned buffers
    /// (shipped in and out of the job via a result channel — no shared
    /// mutable state), and the partials are combined by the identical fixed
    /// pairwise tree. **Bit-identical to the serial kernel for every pool
    /// size**, and no threads are spawned or joined per gradient step.
    ///
    /// Worker panics are re-raised on the calling thread after every band
    /// has reported, so the pool and the scratch stay reusable.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or out of bounds, or shapes mismatch.
    pub(crate) fn pooled_loss_and_gradient_into(
        &self,
        data: &Arc<Dataset>,
        indices: &[usize],
        scratch: &mut GradScratch,
        pool: &WorkerPool,
    ) -> f64 {
        assert!(!indices.is_empty(), "gradient over empty batch");
        self.check_shape(data);
        let np = self.params.len();
        let nc = self.num_classes;
        let n_chunks = indices.len().div_ceil(GRAD_CHUNK);
        let workers = pool.size().min(n_chunks);
        if workers <= 1 {
            return self.fused_loss_and_gradient_into(data, indices, scratch);
        }
        scratch.prepare_pooled(np, n_chunks, indices.len(), workers);
        let snapshot = scratch.refresh_snapshot(self);

        let base = n_chunks / workers;
        let extra = n_chunks % workers;
        let (result_tx, result_rx) = std::sync::mpsc::channel();
        let mut chunk0 = 0usize;
        for w in 0..workers {
            let band = base + usize::from(w < extra);
            let s0 = chunk0 * GRAD_CHUNK;
            let s1 = ((chunk0 + band) * GRAD_CHUNK).min(indices.len());
            let mut state = scratch.take_band(w);
            state.load(np, nc, band, &indices[s0..s1]);
            chunk0 += band;
            let model = Arc::clone(&snapshot);
            let data = Arc::clone(data);
            let tx = result_tx.clone();
            pool.submit(w, move || {
                // The Arc handles ride inside the result so they are fully
                // released (on success *and* on panic) before the caller's
                // next snapshot refresh observes the refcount.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                    model.run_band(&data, &mut state);
                    (state, model, data)
                }));
                let _ = tx.send((w, outcome));
            });
        }
        drop(result_tx);

        let mut worker_panic = None;
        for _ in 0..workers {
            let (w, outcome) = result_rx
                .recv()
                .expect("invariant: every pool job reports exactly once");
            match outcome {
                Ok((state, _model, _data)) => {
                    let band = base + usize::from(w < extra);
                    let start = w * base + w.min(extra);
                    scratch.absorb_band(w, state, np, start, band);
                }
                Err(payload) => worker_panic = Some(payload),
            }
        }
        drop(snapshot);
        if let Some(payload) = worker_panic {
            std::panic::resume_unwind(payload);
        }

        scratch.reduce_mean(np, n_chunks)
    }

    /// Computes one band of chunks into `state` (the pool-worker side of
    /// [`LogisticRegression::pooled_loss_and_gradient_into`]). Chunking and
    /// per-chunk arithmetic are exactly those of the serial kernel.
    pub(crate) fn run_band(&self, data: &Dataset, state: &mut BandState) {
        let np = self.params.len();
        let BandState {
            partials,
            terms,
            indices,
            work,
            ..
        } = state;
        for ((chunk, part), terms) in indices
            .chunks(GRAD_CHUNK)
            .zip(partials.chunks_mut(np))
            .zip(terms.chunks_mut(GRAD_CHUNK))
        {
            self.grad_chunk_into(data, chunk, part, terms, work);
        }
    }

    /// Applies `params -= step * gradient` in place.
    ///
    /// # Panics
    ///
    /// Panics if the gradient length mismatches.
    pub(crate) fn apply_gradient(&mut self, gradient: &[f64], step: f64) {
        assert_eq!(
            gradient.len(),
            self.params.len(),
            "gradient length mismatch"
        );
        for (p, &g) in self.params.iter_mut().zip(gradient) {
            *p -= step * g;
        }
    }

    /// Applies L2 weight decay in place: `W -= step * decay * W` over the
    /// weight block (biases are left untouched, per convention).
    ///
    /// # Panics
    ///
    /// Panics if `step * decay` is negative or not finite.
    pub(crate) fn apply_weight_decay(&mut self, step: f64, decay: f64) {
        let shrink = step * decay;
        assert!(
            shrink.is_finite() && shrink >= 0.0,
            "decay step must be non-negative"
        );
        let weight_len = self.num_classes * self.dim;
        for w in &mut self.params[..weight_len] {
            *w -= shrink * *w;
        }
    }

    /// Fused gradient step + weight decay: one pass over the weight block
    /// via [`fei_math::reduce::fused_axpy_shrink`] (half the memory traffic
    /// of step-then-decay), plain step over the biases. Arithmetic matches
    /// [`LogisticRegression::apply_gradient`] followed by
    /// [`LogisticRegression::apply_weight_decay`] operation-for-operation.
    ///
    /// # Panics
    ///
    /// Panics if the gradient length mismatches or `step * decay` is
    /// negative or not finite.
    pub(crate) fn apply_gradient_decayed(&mut self, gradient: &[f64], step: f64, decay: f64) {
        assert_eq!(
            gradient.len(),
            self.params.len(),
            "gradient length mismatch"
        );
        let shrink = step * decay;
        assert!(
            shrink.is_finite() && shrink >= 0.0,
            "decay step must be non-negative"
        );
        // fei-lint: allow(float-eq, reason = "exact-zero shrink selects the plain step, preserving bit-identity (incl. -0.0 weights) with apply_gradient when decay is disabled")
        if shrink == 0.0 {
            self.apply_gradient(gradient, step);
            return;
        }
        let weight_len = self.num_classes * self.dim;
        reduce::fused_axpy_shrink(
            &mut self.params[..weight_len],
            -step,
            &gradient[..weight_len],
            shrink,
        );
        for (p, &g) in self.params[weight_len..]
            .iter_mut()
            .zip(&gradient[weight_len..])
        {
            *p -= step * g;
        }
    }

    /// Squared L2 distance between this model's parameters and another's
    /// (`||ω − ω'||²`, the quantity in the convergence bound).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn param_distance_sq(&self, other: &LogisticRegression) -> f64 {
        assert_eq!(
            (self.dim, self.num_classes),
            (other.dim, other.num_classes),
            "model shapes differ"
        );
        self.params
            .iter()
            .zip(&other.params)
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }

    fn check_shape(&self, data: &Dataset) {
        assert_eq!(data.dim(), self.dim, "dataset dimension mismatch");
        assert_eq!(data.num_classes(), self.num_classes, "class count mismatch");
    }
}

impl crate::traits::Model for LogisticRegression {
    fn dim(&self) -> usize {
        LogisticRegression::dim(self)
    }

    fn num_classes(&self) -> usize {
        LogisticRegression::num_classes(self)
    }

    fn num_params(&self) -> usize {
        LogisticRegression::num_params(self)
    }

    fn to_flat(&self) -> &[f64] {
        LogisticRegression::to_flat(self)
    }

    fn set_flat(&mut self, flat: &[f64]) {
        LogisticRegression::set_flat(self, flat);
    }

    fn predict(&self, x: &[f64]) -> usize {
        LogisticRegression::predict(self, x)
    }

    fn loss(&self, data: &Dataset) -> f64 {
        LogisticRegression::loss(self, data)
    }

    fn loss_and_gradient(&self, data: &Dataset, indices: &[usize]) -> (f64, Vec<f64>) {
        LogisticRegression::loss_and_gradient(self, data, indices)
    }

    fn apply_gradient(&mut self, gradient: &[f64], step: f64) {
        LogisticRegression::apply_gradient(self, gradient, step);
    }

    fn apply_weight_decay(&mut self, step: f64, decay: f64) {
        LogisticRegression::apply_weight_decay(self, step, decay);
    }

    fn loss_and_gradient_into(
        &self,
        data: &Dataset,
        indices: &[usize],
        scratch: &mut GradScratch,
    ) -> f64 {
        LogisticRegression::fused_loss_and_gradient_into(self, data, indices, scratch)
    }

    fn loss_with(&self, data: &Dataset, scratch: &mut GradScratch) -> f64 {
        LogisticRegression::loss_with(self, data, scratch)
    }

    fn evaluate_with(&self, data: &Dataset, scratch: &mut GradScratch) -> Evaluation {
        LogisticRegression::evaluate_with(self, data, scratch)
    }

    fn loss_and_gradient_pooled(
        &self,
        data: &Arc<Dataset>,
        indices: &[usize],
        scratch: &mut GradScratch,
        pool: &WorkerPool,
    ) -> f64 {
        LogisticRegression::pooled_loss_and_gradient_into(self, data, indices, scratch, pool)
    }

    fn apply_gradient_decayed(&mut self, gradient: &[f64], step: f64, decay: f64) {
        LogisticRegression::apply_gradient_decayed(self, gradient, step, decay);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_like_dataset() -> Dataset {
        // Two linearly separable clusters in 2-D.
        Dataset::from_parts(
            2,
            vec![
                0.0, 0.0, //
                0.2, 0.1, //
                1.0, 1.0, //
                0.9, 0.8,
            ],
            vec![0, 0, 1, 1],
            2,
        )
    }

    #[test]
    fn zero_model_is_uniform() {
        let m = LogisticRegression::zeros(3, 4);
        assert!(m.logits(&[1.0, 2.0, 3.0]).iter().all(|&z| z == 0.0));
        assert_eq!(m.num_params(), 3 * 4 + 4);
        assert_eq!(m.payload_bytes(), (3 * 4 + 4) * 8);
    }

    #[test]
    fn zero_model_loss_is_log_c() {
        let m = LogisticRegression::zeros(2, 2);
        let loss = m.loss(&xor_like_dataset());
        assert!((loss - (2.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn flat_round_trip() {
        let mut m = LogisticRegression::zeros(2, 2);
        m.set_flat(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let copy = LogisticRegression::from_flat(2, 2, m.to_flat().to_vec());
        assert_eq!(m, copy);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_flat_rejects_bad_length() {
        LogisticRegression::zeros(2, 2).set_flat(&[0.0]);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let data = xor_like_dataset();
        let mut m = LogisticRegression::zeros(2, 2);
        m.set_flat(&[0.3, -0.2, 0.1, 0.4, 0.05, -0.1]);
        let indices: Vec<usize> = (0..data.len()).collect();
        let (_, grad) = m.loss_and_gradient(&data, &indices);

        let eps = 1e-6;
        let mut flat = m.to_flat().to_vec();
        for j in 0..flat.len() {
            let orig = flat[j];
            flat[j] = orig + eps;
            let up = LogisticRegression::from_flat(2, 2, flat.clone()).loss(&data);
            flat[j] = orig - eps;
            let down = LogisticRegression::from_flat(2, 2, flat.clone()).loss(&data);
            flat[j] = orig;
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - grad[j]).abs() < 1e-6,
                "param {j}: numeric {numeric} vs analytic {}",
                grad[j]
            );
        }
    }

    #[test]
    fn gradient_step_decreases_loss() {
        let data = xor_like_dataset();
        let mut m = LogisticRegression::zeros(2, 2);
        let indices: Vec<usize> = (0..data.len()).collect();
        for _ in 0..50 {
            let (loss_before, grad) = m.loss_and_gradient(&data, &indices);
            m.apply_gradient(&grad, 0.5);
            let loss_after = m.loss(&data);
            assert!(loss_after <= loss_before + 1e-12);
        }
        // Separable data: the trained model classifies everything correctly.
        for (x, y) in data.iter() {
            assert_eq!(m.predict(x), y);
        }
    }

    #[test]
    fn minibatch_gradient_averages_subsets() {
        let data = xor_like_dataset();
        let mut m = LogisticRegression::zeros(2, 2);
        m.set_flat(&[0.1, 0.2, -0.1, 0.0, 0.3, -0.3]);
        let (_, g_full) = m.loss_and_gradient(&data, &[0, 1, 2, 3]);
        let (_, g_a) = m.loss_and_gradient(&data, &[0, 1]);
        let (_, g_b) = m.loss_and_gradient(&data, &[2, 3]);
        for j in 0..g_full.len() {
            assert!((g_full[j] - 0.5 * (g_a[j] + g_b[j])).abs() < 1e-12);
        }
    }

    #[test]
    fn weight_decay_shrinks_weights_not_biases() {
        let mut m = LogisticRegression::from_flat(1, 2, vec![2.0, -4.0, 1.0, 3.0]);
        m.apply_weight_decay(0.5, 0.1);
        // Weights shrink by factor (1 - 0.05); biases untouched.
        assert_eq!(m.to_flat(), &[1.9, -3.8, 1.0, 3.0]);
        m.apply_weight_decay(1.0, 0.0);
        assert_eq!(m.to_flat(), &[1.9, -3.8, 1.0, 3.0]);
    }

    #[test]
    fn param_distance_is_squared_l2() {
        let a = LogisticRegression::from_flat(1, 2, vec![0.0, 0.0, 0.0, 0.0]);
        let b = LogisticRegression::from_flat(1, 2, vec![1.0, 2.0, 0.0, 2.0]);
        assert_eq!(a.param_distance_sq(&b), 9.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn loss_rejects_mismatched_dataset() {
        let data = xor_like_dataset();
        let m = LogisticRegression::zeros(3, 2);
        let _ = m.loss(&data);
    }

    /// A deterministic many-sample dataset spanning several GRAD_CHUNKs.
    pub(super) fn chunky_dataset(n: usize, dim: usize, classes: usize) -> Dataset {
        let mut xs = Vec::with_capacity(n * dim);
        let mut ys = Vec::with_capacity(n);
        let mut state = 0x5EEDu64;
        for i in 0..n {
            for _ in 0..dim {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                xs.push(((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5);
            }
            ys.push(i % classes);
        }
        Dataset::from_parts(dim, xs, ys, classes)
    }

    pub(super) fn warm_model(dim: usize, classes: usize) -> LogisticRegression {
        let mut m = LogisticRegression::zeros(dim, classes);
        let flat: Vec<f64> = (0..m.num_params())
            .map(|i| ((i * 37 % 101) as f64 - 50.0) / 200.0)
            .collect();
        m.set_flat(&flat);
        m
    }

    #[test]
    fn fused_matches_naive_within_tolerance() {
        let data = chunky_dataset(200, 9, 3);
        let model = warm_model(9, 3);
        let indices: Vec<usize> = (0..data.len()).collect();
        let (naive_loss, naive_grad) = model.loss_and_gradient(&data, &indices);
        let mut scratch = GradScratch::new();
        let fused_loss = model.fused_loss_and_gradient_into(&data, &indices, &mut scratch);
        assert!(
            (fused_loss - naive_loss).abs() < 1e-12,
            "{fused_loss} vs {naive_loss}"
        );
        for (f, n) in scratch.grad().iter().zip(&naive_grad) {
            assert!((f - n).abs() < 1e-12, "{f} vs {n}");
        }
    }

    #[test]
    fn fused_gradient_matches_finite_differences() {
        let data = xor_like_dataset();
        let mut m = LogisticRegression::zeros(2, 2);
        m.set_flat(&[0.3, -0.2, 0.1, 0.4, 0.05, -0.1]);
        let indices: Vec<usize> = (0..data.len()).collect();
        let mut scratch = GradScratch::new();
        m.fused_loss_and_gradient_into(&data, &indices, &mut scratch);

        let eps = 1e-6;
        let mut flat = m.to_flat().to_vec();
        for j in 0..flat.len() {
            let orig = flat[j];
            flat[j] = orig + eps;
            let up = LogisticRegression::from_flat(2, 2, flat.clone()).loss(&data);
            flat[j] = orig - eps;
            let down = LogisticRegression::from_flat(2, 2, flat.clone()).loss(&data);
            flat[j] = orig;
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - scratch.grad()[j]).abs() < 1e-6,
                "param {j}: numeric {numeric} vs fused {}",
                scratch.grad()[j]
            );
        }
    }

    #[test]
    fn fused_kernel_is_allocation_free_when_warm() {
        let data = chunky_dataset(150, 8, 2);
        let model = warm_model(8, 2);
        let indices: Vec<usize> = (0..data.len()).collect();
        let mut scratch = GradScratch::new();
        model.fused_loss_and_gradient_into(&data, &indices, &mut scratch);
        let warm = scratch.allocations();
        for _ in 0..20 {
            model.fused_loss_and_gradient_into(&data, &indices, &mut scratch);
        }
        assert_eq!(scratch.allocations(), warm, "warm kernel must not allocate");
    }

    #[test]
    fn apply_gradient_decayed_matches_two_pass() {
        // warm_model(3, 4): 3*4 weights + 4 biases = 16 parameters.
        let grad: Vec<f64> = (0..16).map(|i| (i as f64 - 7.0) / 3.0).collect();
        let (step, decay) = (0.05, 0.01);

        let mut fused = warm_model(3, 4);
        let mut two_pass = fused.clone();
        fused.apply_gradient_decayed(&grad, step, decay);
        two_pass.apply_gradient(&grad, step);
        two_pass.apply_weight_decay(step, decay);
        assert_eq!(fused.to_flat(), two_pass.to_flat());

        // decay = 0 must reduce to the plain step, bit for bit.
        let mut no_decay = warm_model(3, 4);
        let mut plain = no_decay.clone();
        no_decay.apply_gradient_decayed(&grad, step, 0.0);
        plain.apply_gradient(&grad, step);
        assert_eq!(no_decay.to_flat(), plain.to_flat());
    }

    /// Sizes around the GRAD_CHUNK = 64 boundaries, plus a single sample.
    const EDGE_SIZES: [usize; 6] = [1, 63, 64, 65, 130, 333];

    /// Loss and accuracy the pre-single-pass way, from the single-sample
    /// API: one pass of allocating `logits` for the loss, a second pass of
    /// `predict` for the accuracy.
    pub(super) fn two_call_reference(model: &LogisticRegression, data: &Dataset) -> Evaluation {
        let mut total = 0.0;
        for (x, y) in data.iter() {
            let logits = model.logits(x);
            total += log_sum_exp(&logits) - logits[y];
        }
        let correct = data.iter().filter(|(x, y)| model.predict(x) == *y).count();
        Evaluation {
            loss: total / data.len() as f64,
            accuracy: correct as f64 / data.len() as f64,
        }
    }

    fn assert_same_bits(got: Evaluation, want: Evaluation, what: &str) {
        assert_eq!(got.loss.to_bits(), want.loss.to_bits(), "loss, {what}");
        assert_eq!(
            got.accuracy.to_bits(),
            want.accuracy.to_bits(),
            "accuracy, {what}"
        );
    }

    #[test]
    fn single_pass_evaluation_matches_the_two_call_reference_bits() {
        let mut scratch = GradScratch::new();
        // Even and odd class counts: the odd one exercises the single-row
        // tail of logits_into.
        for (dim, classes) in [(11, 4), (7, 3)] {
            let model = warm_model(dim, classes);
            for n in EDGE_SIZES {
                let data = chunky_dataset(n, dim, classes);
                let want = two_call_reference(&model, &data);
                let what = format!("n = {n}, {classes} classes");
                assert_same_bits(model.evaluate_with(&data, &mut scratch), want, &what);
                assert_same_bits(Evaluation::of(&model, &data), want, &what);
                assert_eq!(model.loss(&data).to_bits(), want.loss.to_bits(), "{what}");
                assert_eq!(
                    model.loss_with(&data, &mut scratch).to_bits(),
                    want.loss.to_bits(),
                    "{what}"
                );
                assert_eq!(
                    crate::accuracy(&model, &data).to_bits(),
                    want.accuracy.to_bits(),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn evaluation_counts_one_forward_pass_per_sample_and_stays_allocation_free() {
        let data = chunky_dataset(130, 11, 5);
        let model = warm_model(11, 5);
        let mut scratch = GradScratch::new();
        model.evaluate_with(&data, &mut scratch);
        assert_eq!(scratch.forward_passes(), 130);
        let warm = scratch.allocations();
        for _ in 0..10 {
            model.evaluate_with(&data, &mut scratch);
            model.loss_with(&data, &mut scratch);
        }
        assert_eq!(scratch.forward_passes(), 130 * 21);
        assert_eq!(
            scratch.allocations(),
            warm,
            "warm evaluation must not allocate"
        );
    }

    #[test]
    fn kernel_loss_is_the_serial_mean_of_its_sample_terms() {
        // Over the identity batch the kernel's returned loss is loss_with
        // of the same model, bit for bit, serial and pooled alike; the
        // recorded terms are the per-sample losses in batch order.
        let pool = WorkerPool::new(3);
        for n in EDGE_SIZES {
            let data = Arc::new(chunky_dataset(n, 9, 4));
            let model = warm_model(9, 4);
            let indices: Vec<usize> = (0..n).collect();
            let want = two_call_reference(&model, &data).loss;

            let mut serial = GradScratch::new();
            let loss = model.fused_loss_and_gradient_into(&data, &indices, &mut serial);
            assert_eq!(loss.to_bits(), want.to_bits(), "serial, n = {n}");
            assert_eq!(serial.forward_passes(), n as u64);
            for (i, &term) in serial.sample_losses().iter().enumerate() {
                let logits = model.logits(data.sample(i));
                let expect = log_sum_exp(&logits) - logits[data.label(i)];
                assert_eq!(term.to_bits(), expect.to_bits(), "term {i}, n = {n}");
            }

            let mut pooled = GradScratch::new();
            let loss = model.pooled_loss_and_gradient_into(&data, &indices, &mut pooled, &pool);
            assert_eq!(loss.to_bits(), want.to_bits(), "pooled, n = {n}");
            assert_eq!(pooled.sample_losses(), serial.sample_losses());
            assert_eq!(pooled.forward_passes(), n as u64);
        }
    }

    #[test]
    fn pooled_kernel_bit_identical_to_serial_for_every_pool_size() {
        // 300 samples -> 5 chunks of GRAD_CHUNK=64 (last partial); every
        // pool size, including one wider than the chunk count, must produce
        // the same bits as the serial evaluation.
        let data = Arc::new(chunky_dataset(300, 12, 4));
        let model = warm_model(12, 4);
        let indices: Vec<usize> = (0..data.len()).collect();

        let mut serial = GradScratch::new();
        let loss_serial = model.fused_loss_and_gradient_into(&data, &indices, &mut serial);
        for size in (1..=8).chain([64]) {
            let pool = WorkerPool::new(size);
            let mut pooled = GradScratch::new();
            let loss_pooled =
                model.pooled_loss_and_gradient_into(&data, &indices, &mut pooled, &pool);
            assert_eq!(
                loss_serial.to_bits(),
                loss_pooled.to_bits(),
                "loss differs at pool size {size}"
            );
            assert_eq!(
                serial.grad(),
                pooled.grad(),
                "gradient differs at pool size {size}"
            );
        }
    }

    #[test]
    fn pooled_kernel_handles_shuffled_indices_via_gather() {
        // Non-consecutive indices force the mini-batch gather path in every
        // chunk; the result must still match the serial kernel bit for bit.
        let data = Arc::new(chunky_dataset(260, 10, 3));
        let model = warm_model(10, 3);
        let mut indices: Vec<usize> = (0..data.len()).rev().collect();
        indices.swap(5, 170);

        let mut serial = GradScratch::new();
        let loss_serial = model.fused_loss_and_gradient_into(&data, &indices, &mut serial);
        let pool = WorkerPool::new(3);
        let mut pooled = GradScratch::new();
        let loss_pooled = model.pooled_loss_and_gradient_into(&data, &indices, &mut pooled, &pool);
        assert_eq!(loss_serial.to_bits(), loss_pooled.to_bits());
        assert_eq!(serial.grad(), pooled.grad());
    }

    #[test]
    fn pooled_kernel_is_allocation_free_when_warm() {
        let data = Arc::new(chunky_dataset(300, 12, 4));
        let model = warm_model(12, 4);
        let indices: Vec<usize> = (0..data.len()).collect();
        let pool = WorkerPool::new(4);
        let mut scratch = GradScratch::new();
        model.pooled_loss_and_gradient_into(&data, &indices, &mut scratch, &pool);
        let warm = scratch.allocations();
        for _ in 0..20 {
            model.pooled_loss_and_gradient_into(&data, &indices, &mut scratch, &pool);
        }
        assert_eq!(
            scratch.allocations(),
            warm,
            "warm pooled kernel must not allocate"
        );
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// A gradient step with a small enough rate never increases the loss
        /// on the batch it was computed from (descent direction property).
        #[test]
        fn small_gradient_step_descends(
            params in proptest::collection::vec(-1.0f64..1.0, 8),
        ) {
            let data = Dataset::from_parts(
                3,
                vec![0.1, 0.9, 0.3, 0.8, 0.2, 0.7],
                vec![0, 1],
                2,
            );
            let mut m = LogisticRegression::from_flat(3, 2, params);
            let (before, grad) = m.loss_and_gradient(&data, &[0, 1]);
            m.apply_gradient(&grad, 1e-3);
            prop_assert!(m.loss(&data) <= before + 1e-9);
        }

        /// One pass yields exactly the loss and accuracy of the two-call
        /// reference, for any size, shape and parameters.
        #[test]
        fn single_pass_evaluation_matches_reference_for_any_model(
            n in 1usize..200,
            classes in 2usize..6,
            scale in 0.1f64..20.0,
        ) {
            let dim = 5;
            let data = super::tests::chunky_dataset(n, dim, classes);
            let mut model = super::tests::warm_model(dim, classes);
            let scaled: Vec<f64> = model.to_flat().iter().map(|w| w * scale).collect();
            model.set_flat(&scaled);
            let want = super::tests::two_call_reference(&model, &data);
            let got = model.evaluate_with(&data, &mut GradScratch::new());
            prop_assert_eq!(got.loss.to_bits(), want.loss.to_bits());
            prop_assert_eq!(got.accuracy.to_bits(), want.accuracy.to_bits());
        }

        /// Pool partitioning is a pure function of chunk count, never
        /// worker count: for any batch size and any pool size 1..=8 the
        /// pooled kernel lands on exactly the serial evaluation's bits.
        #[test]
        fn pooled_partitioning_matches_serial_for_any_pool_size(
            n in 65usize..300,
            size in 1usize..=8,
        ) {
            let data = std::sync::Arc::new(super::tests::chunky_dataset(n, 9, 3));
            let model = super::tests::warm_model(9, 3);
            let indices: Vec<usize> = (0..n).collect();

            let mut serial = GradScratch::new();
            let loss_serial =
                model.fused_loss_and_gradient_into(&data, &indices, &mut serial);

            let pool = WorkerPool::new(size);
            let mut pooled = GradScratch::new();
            let loss_pooled =
                model.pooled_loss_and_gradient_into(&data, &indices, &mut pooled, &pool);
            prop_assert_eq!(loss_serial.to_bits(), loss_pooled.to_bits());
            prop_assert_eq!(serial.grad(), pooled.grad());
        }
    }
}
