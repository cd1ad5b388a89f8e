//! A one-hidden-layer perceptron — the "more complex model" direction the
//! paper motivates (its intro cites model-training complexity as the driver
//! of edge energy costs).
//!
//! Architecture: `dim → hidden (tanh) → classes (softmax)`, trained with the
//! same softmax cross-entropy as the logistic regression. Parameters live in
//! one flat vector (`W1 | b1 | W2 | b2`) so FedAvg averages and ships MLPs
//! exactly like any other [`crate::Model`].

use fei_data::Dataset;
use fei_math::func::{argmax, log_sum_exp, softmax_in_place};
use fei_math::matrix::dot;
use fei_sim::DetRng;
use serde::{Deserialize, Serialize};

use crate::traits::Model;

/// A one-hidden-layer tanh MLP with softmax output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    dim: usize,
    hidden: usize,
    num_classes: usize,
    /// `W1 (hidden×dim) | b1 (hidden) | W2 (classes×hidden) | b2 (classes)`.
    params: Vec<f64>,
}

impl Mlp {
    /// Creates an MLP with small deterministic Gaussian-initialized weights
    /// (zero init would leave all hidden units identical forever).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `num_classes < 2`.
    pub fn new(dim: usize, hidden: usize, num_classes: usize, seed: u64) -> Self {
        assert!(dim > 0, "dimension must be non-zero");
        assert!(hidden > 0, "hidden layer must be non-zero");
        assert!(num_classes >= 2, "need at least two classes");
        let mut rng = DetRng::new(seed).fork(0x3117);
        let n = hidden * dim + hidden + num_classes * hidden + num_classes;
        // Xavier-ish scale for tanh.
        let w1_scale = (1.0 / dim as f64).sqrt();
        let w2_scale = (1.0 / hidden as f64).sqrt();
        let mut params = Vec::with_capacity(n);
        for _ in 0..hidden * dim {
            params.push(rng.gaussian_with(0.0, w1_scale));
        }
        params.extend(std::iter::repeat_n(0.0, hidden));
        for _ in 0..num_classes * hidden {
            params.push(rng.gaussian_with(0.0, w2_scale));
        }
        params.extend(std::iter::repeat_n(0.0, num_classes));
        Self {
            dim,
            hidden,
            num_classes,
            params,
        }
    }

    fn w1(&self) -> &[f64] {
        &self.params[..self.hidden * self.dim]
    }

    fn b1(&self) -> &[f64] {
        let start = self.hidden * self.dim;
        &self.params[start..start + self.hidden]
    }

    fn w2(&self) -> &[f64] {
        let start = self.hidden * self.dim + self.hidden;
        &self.params[start..start + self.num_classes * self.hidden]
    }

    fn b2(&self) -> &[f64] {
        &self.params[self.params.len() - self.num_classes..]
    }

    /// Forward pass: returns `(hidden activations, logits)`.
    fn forward(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        assert_eq!(x.len(), self.dim, "input has wrong dimension");
        let h: Vec<f64> = (0..self.hidden)
            .map(|j| (dot(&self.w1()[j * self.dim..(j + 1) * self.dim], x) + self.b1()[j]).tanh())
            .collect();
        let logits: Vec<f64> = (0..self.num_classes)
            .map(|c| dot(&self.w2()[c * self.hidden..(c + 1) * self.hidden], &h) + self.b2()[c])
            .collect();
        (h, logits)
    }

    fn check_shape(&self, data: &Dataset) {
        assert_eq!(data.dim(), self.dim, "dataset dimension mismatch");
        assert_eq!(data.num_classes(), self.num_classes, "class count mismatch");
    }
}

impl Model for Mlp {
    fn dim(&self) -> usize {
        self.dim
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn num_params(&self) -> usize {
        self.params.len()
    }

    fn to_flat(&self) -> &[f64] {
        &self.params
    }

    fn set_flat(&mut self, flat: &[f64]) {
        assert_eq!(
            flat.len(),
            self.params.len(),
            "flat parameter length mismatch"
        );
        self.params.copy_from_slice(flat);
    }

    fn predict(&self, x: &[f64]) -> usize {
        argmax(&self.forward(x).1)
    }

    fn loss(&self, data: &Dataset) -> f64 {
        assert!(!data.is_empty(), "loss over empty dataset");
        self.check_shape(data);
        let mut total = 0.0;
        for (x, y) in data.iter() {
            let (_, logits) = self.forward(x);
            total += log_sum_exp(&logits) - logits[y];
        }
        total / data.len() as f64
    }

    fn loss_and_gradient(&self, data: &Dataset, indices: &[usize]) -> (f64, Vec<f64>) {
        assert!(!indices.is_empty(), "gradient over empty batch");
        self.check_shape(data);
        let (h_n, c_n, d_n) = (self.hidden, self.num_classes, self.dim);
        let w1_len = h_n * d_n;
        let w2_start = w1_len + h_n;
        let b2_start = w2_start + c_n * h_n;

        let mut grad = vec![0.0; self.params.len()];
        let mut total_loss = 0.0;
        for &i in indices {
            let x = data.sample(i);
            let y = data.label(i);
            let (h, logits) = self.forward(x);
            total_loss += log_sum_exp(&logits) - logits[y];
            let mut probs = logits;
            softmax_in_place(&mut probs);

            // Output-layer error delta2_c = p_c - 1{c == y}.
            // Accumulate W2/b2 gradients and backprop into the hidden layer.
            let mut delta_h = vec![0.0; h_n];
            for (c, &p) in probs.iter().enumerate() {
                let err = p - f64::from(u8::from(c == y));
                // fei-lint: allow(float-eq, reason = "exact-zero gradient sparsity skip mirrored by the packed kernel, keeping the fused path bit-identical; a tolerance would bias the gradient")
                if err == 0.0 {
                    continue;
                }
                let row = &self.w2()[c * h_n..(c + 1) * h_n];
                let grow = &mut grad[w2_start + c * h_n..w2_start + (c + 1) * h_n];
                for j in 0..h_n {
                    grow[j] += err * h[j];
                    delta_h[j] += err * row[j];
                }
                grad[b2_start + c] += err;
            }
            // Hidden-layer error through tanh': (1 - h^2).
            for j in 0..h_n {
                let dj = delta_h[j] * (1.0 - h[j] * h[j]);
                // fei-lint: allow(float-eq, reason = "exact-zero gradient sparsity skip mirrored by the packed kernel, keeping the fused path bit-identical; a tolerance would bias the gradient")
                if dj == 0.0 {
                    continue;
                }
                let grow = &mut grad[j * d_n..(j + 1) * d_n];
                for (g, &xi) in grow.iter_mut().zip(x) {
                    *g += dj * xi;
                }
                grad[w1_len + j] += dj;
            }
        }
        let inv_n = 1.0 / indices.len() as f64;
        for g in &mut grad {
            *g *= inv_n;
        }
        (total_loss * inv_n, grad)
    }

    fn apply_gradient(&mut self, gradient: &[f64], step: f64) {
        assert_eq!(
            gradient.len(),
            self.params.len(),
            "gradient length mismatch"
        );
        for (p, &g) in self.params.iter_mut().zip(gradient) {
            *p -= step * g;
        }
    }

    fn apply_weight_decay(&mut self, step: f64, decay: f64) {
        let shrink = step * decay;
        assert!(
            shrink.is_finite() && shrink >= 0.0,
            "decay step must be non-negative"
        );
        // Decay W1 and W2, leave b1/b2 alone.
        let w1_len = self.hidden * self.dim;
        let w2_start = w1_len + self.hidden;
        let w2_end = w2_start + self.num_classes * self.hidden;
        for w in &mut self.params[..w1_len] {
            *w -= shrink * *w;
        }
        for w in &mut self.params[w2_start..w2_end] {
            *w -= shrink * *w;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_data() -> Dataset {
        // XOR-ish: not linearly separable, so the hidden layer has work to do.
        Dataset::from_parts(
            2,
            vec![
                0.0, 0.0, //
                1.0, 1.0, //
                0.0, 1.0, //
                1.0, 0.0,
            ],
            vec![0, 0, 1, 1],
            2,
        )
    }

    #[test]
    fn shapes_and_flat_round_trip() {
        let mlp = Mlp::new(3, 4, 2, 7);
        assert_eq!(mlp.dim(), 3);
        assert_eq!(mlp.hidden, 4);
        assert_eq!(Model::num_classes(&mlp), 2);
        assert_eq!(Model::num_params(&mlp), 3 * 4 + 4 + 2 * 4 + 2);
        let mut copy = Mlp::new(3, 4, 2, 99);
        copy.set_flat(mlp.to_flat());
        assert_eq!(copy.to_flat(), mlp.to_flat());
    }

    #[test]
    fn initialization_is_seeded_and_nonzero() {
        let a = Mlp::new(4, 3, 2, 1);
        let b = Mlp::new(4, 3, 2, 1);
        let c = Mlp::new(4, 3, 2, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.to_flat().iter().any(|&w| w != 0.0));
        // Biases start at zero.
        assert!(a.b1().iter().all(|&b| b == 0.0));
        assert!(a.b2().iter().all(|&b| b == 0.0));
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let data = tiny_data();
        let mlp = Mlp::new(2, 3, 2, 11);
        let indices: Vec<usize> = (0..data.len()).collect();
        let (_, grad) = mlp.loss_and_gradient(&data, &indices);

        let eps = 1e-6;
        let mut flat = mlp.to_flat().to_vec();
        for j in 0..flat.len() {
            let orig = flat[j];
            flat[j] = orig + eps;
            let mut up = mlp.clone();
            up.set_flat(&flat);
            let up_loss = up.loss(&data);
            flat[j] = orig - eps;
            let mut down = mlp.clone();
            down.set_flat(&flat);
            let down_loss = down.loss(&data);
            flat[j] = orig;
            let numeric = (up_loss - down_loss) / (2.0 * eps);
            assert!(
                (numeric - grad[j]).abs() < 1e-6,
                "param {j}: numeric {numeric} vs analytic {}",
                grad[j]
            );
        }
    }

    #[test]
    fn mlp_solves_xor_where_linear_cannot() {
        let data = tiny_data();
        let mut mlp = Mlp::new(2, 8, 2, 5);
        let indices: Vec<usize> = (0..data.len()).collect();
        for _ in 0..3_000 {
            let (_, grad) = mlp.loss_and_gradient(&data, &indices);
            mlp.apply_gradient(&grad, 0.5);
        }
        for (x, y) in data.iter() {
            assert_eq!(mlp.predict(x), y, "misclassified {x:?}");
        }
        // Linear LR cannot exceed 75% on XOR; verify the contrast.
        let mut lr = crate::LogisticRegression::zeros(2, 2);
        for _ in 0..3_000 {
            let (_, grad) = lr.loss_and_gradient(&data, &indices);
            lr.apply_gradient(&grad, 0.5);
        }
        let lr_correct = data.iter().filter(|(x, y)| lr.predict(x) == *y).count();
        assert!(
            lr_correct < 4,
            "LR should not solve XOR, got {lr_correct}/4"
        );
    }

    #[test]
    fn weight_decay_spares_biases() {
        let mut mlp = Mlp::new(2, 2, 2, 3);
        let mut flat = mlp.to_flat().to_vec();
        // Force known biases.
        let w1_len = 4;
        flat[w1_len] = 5.0; // b1[0]
        let b2_start = flat.len() - 2;
        flat[b2_start] = 7.0;
        mlp.set_flat(&flat);
        mlp.apply_weight_decay(1.0, 0.1);
        assert_eq!(mlp.b1()[0], 5.0);
        assert_eq!(mlp.b2()[0], 7.0);
        // Weights shrank by exactly 10%.
        for (before, after) in flat[..w1_len].iter().zip(mlp.w1()) {
            assert!((after - before * 0.9).abs() < 1e-12);
        }
    }

    #[test]
    fn trainer_accepts_mlp() {
        use crate::{LocalTrainer, SgdConfig};
        let data = tiny_data();
        let mut mlp = Mlp::new(2, 4, 2, 9);
        let stats = LocalTrainer::new(SgdConfig::new(0.5, 1.0, None)).train(&mut mlp, &data, 50, 0);
        assert!(Model::loss(&mlp, &data) < stats.initial_loss);
    }

    #[test]
    #[should_panic(expected = "hidden layer")]
    fn rejects_zero_hidden() {
        let _ = Mlp::new(2, 0, 2, 0);
    }
}
