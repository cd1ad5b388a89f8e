//! MNIST-shaped synthetic data.
//!
//! The paper's evaluation trains multinomial logistic regression on MNIST
//! (784-dimensional pixels, 10 classes, ~92 % LR accuracy ceiling). This
//! module substitutes a generator with the same interface characteristics:
//!
//! * each class has a fixed "digit-like" prototype image — a handful of
//!   Gaussian intensity blobs on the 28 × 28 grid;
//! * samples are the prototype plus per-pixel Gaussian noise, clipped to the
//!   `[0, 1]` pixel range;
//! * a small label-flip probability caps the achievable test accuracy. With
//!   flip probability `p` (flipping to a uniformly random *other* class) the
//!   Bayes ceiling is `1 - p`, so the default `p = 0.08` pins the ceiling
//!   near the paper's 92 %.
//!
//! Because every MNIST-dependent figure in the paper (Fig. 4–6) only consumes
//! the loss/accuracy-versus-round curves of the LR model, matching the curve
//! ceiling and smoothness is what preserves downstream behaviour.

use fei_sim::DetRng;
use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;

/// Width and height of the synthetic images (matches MNIST's 28 × 28).
pub(crate) const IMAGE_SIDE: usize = 28;
/// Feature dimension (`IMAGE_SIDE`², the paper's 784-entry input).
pub(crate) const IMAGE_DIM: usize = IMAGE_SIDE * IMAGE_SIDE;
/// Number of classes (digits 0–9).
pub(crate) const NUM_CLASSES: usize = 10;

/// Configuration for [`SyntheticMnist`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticMnistConfig {
    /// Per-pixel Gaussian noise standard deviation added to the prototype.
    pub pixel_noise_std: f64,
    /// Probability that a sample's label is replaced by a uniformly random
    /// *different* class; caps test accuracy near `1 - label_flip_prob`.
    pub label_flip_prob: f64,
    /// Number of Gaussian intensity blobs per class prototype.
    pub blobs_per_class: usize,
    /// Seed controlling prototypes and all sampling.
    pub seed: u64,
}

impl Default for SyntheticMnistConfig {
    fn default() -> Self {
        Self {
            pixel_noise_std: 0.35,
            label_flip_prob: 0.08,
            blobs_per_class: 4,
            seed: 0x5EED_F00D,
        }
    }
}

/// Generator of MNIST-shaped synthetic classification data.
///
/// # Example
///
/// ```
/// use fei_data::{SyntheticMnist, SyntheticMnistConfig};
///
/// let gen = SyntheticMnist::new(SyntheticMnistConfig::default());
/// let train = gen.generate(100, 1);
/// assert_eq!(train.len(), 100);
/// assert_eq!(train.dim(), 784);
/// assert_eq!(train.num_classes(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticMnist {
    config: SyntheticMnistConfig,
    /// `NUM_CLASSES` prototype images, each `IMAGE_DIM` pixels in `[0, 1]`.
    prototypes: Vec<Vec<f64>>,
}

impl SyntheticMnist {
    /// Builds the generator, deriving the class prototypes from the seed.
    ///
    /// # Panics
    ///
    /// Panics if `pixel_noise_std < 0`, `label_flip_prob` is outside
    /// `[0, 1]`, or `blobs_per_class == 0`.
    pub fn new(config: SyntheticMnistConfig) -> Self {
        assert!(
            config.pixel_noise_std >= 0.0,
            "noise std must be non-negative"
        );
        assert!(
            (0.0..=1.0).contains(&config.label_flip_prob),
            "label flip probability must be in [0, 1]"
        );
        assert!(
            config.blobs_per_class > 0,
            "need at least one blob per class"
        );
        let mut proto_rng = DetRng::new(config.seed).fork(0xD161);
        let prototypes = (0..NUM_CLASSES)
            .map(|_| Self::make_prototype(&mut proto_rng, config.blobs_per_class))
            .collect();
        Self { config, prototypes }
    }

    /// Generates `n` labelled samples. Different `stream` ids give
    /// independent draws from the same distribution (e.g. stream 0 for
    /// training data, stream 1 for test data).
    pub fn generate(&self, n: usize, stream: u64) -> Dataset {
        let mut rng = DetRng::new(self.config.seed).fork(0x5A17 + stream);
        let mut ds = Dataset::empty(IMAGE_DIM, NUM_CLASSES);
        let mut pixels = vec![0.0f64; IMAGE_DIM];
        for _ in 0..n {
            let true_class = rng.next_below(NUM_CLASSES as u64) as usize;
            let proto = &self.prototypes[true_class];
            for (p, &base) in pixels.iter_mut().zip(proto) {
                *p = (base + rng.gaussian_with(0.0, self.config.pixel_noise_std)).clamp(0.0, 1.0);
            }
            let label = if rng.next_f64() < self.config.label_flip_prob {
                // Uniform among the other classes.
                let shift = 1 + rng.next_below(NUM_CLASSES as u64 - 1) as usize;
                (true_class + shift) % NUM_CLASSES
            } else {
                true_class
            };
            ds.push(&pixels, label);
        }
        ds
    }

    fn make_prototype(rng: &mut DetRng, blobs: usize) -> Vec<f64> {
        let mut img = vec![0.0f64; IMAGE_DIM];
        for _ in 0..blobs {
            // Blob centers stay away from the border, like pen strokes.
            let cx = rng.uniform(6.0, (IMAGE_SIDE - 6) as f64);
            let cy = rng.uniform(6.0, (IMAGE_SIDE - 6) as f64);
            let sigma = rng.uniform(1.5, 3.5);
            let amp = rng.uniform(0.6, 1.0);
            for y in 0..IMAGE_SIDE {
                for x in 0..IMAGE_SIDE {
                    let d2 = (x as f64 - cx).powi(2) + (y as f64 - cy).powi(2);
                    img[y * IMAGE_SIDE + x] += amp * (-d2 / (2.0 * sigma * sigma)).exp();
                }
            }
        }
        for p in &mut img {
            *p = p.clamp(0.0, 1.0);
        }
        img
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_gen() -> SyntheticMnist {
        SyntheticMnist::new(SyntheticMnistConfig::default())
    }

    #[test]
    fn shapes_match_mnist() {
        let ds = small_gen().generate(50, 0);
        assert_eq!(ds.len(), 50);
        assert_eq!(ds.dim(), 784);
        assert_eq!(ds.num_classes(), 10);
    }

    #[test]
    fn pixels_stay_in_unit_interval() {
        let ds = small_gen().generate(20, 0);
        for (features, _) in ds.iter() {
            assert!(features.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_gen().generate(30, 0);
        let b = small_gen().generate(30, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn streams_are_independent() {
        let gen = small_gen();
        assert_ne!(gen.generate(30, 0), gen.generate(30, 1));
    }

    #[test]
    fn different_seeds_give_different_prototypes() {
        let a = SyntheticMnist::new(SyntheticMnistConfig {
            seed: 1,
            ..Default::default()
        });
        let b = SyntheticMnist::new(SyntheticMnistConfig {
            seed: 2,
            ..Default::default()
        });
        assert_ne!(a.prototypes[0], b.prototypes[0]);
    }

    #[test]
    fn prototypes_are_distinct_across_classes() {
        let gen = small_gen();
        for c in 1..NUM_CLASSES {
            let diff: f64 = gen.prototypes[0]
                .iter()
                .zip(&gen.prototypes[c])
                .map(|(a, b)| (a - b).abs())
                .sum();
            assert!(diff > 1.0, "classes 0 and {c} are nearly identical");
        }
    }

    #[test]
    fn labels_cover_all_classes() {
        let ds = small_gen().generate(2_000, 0);
        let hist = ds.class_histogram();
        assert!(
            hist.iter().all(|&c| c > 100),
            "unbalanced histogram {hist:?}"
        );
    }

    #[test]
    fn label_flip_rate_is_plausible() {
        // With flip prob 0 every sample's label equals its generating class;
        // we can't observe the true class directly, but flipping changes the
        // dataset, so compare flip=0 vs flip=0.5 labelling on the same stream.
        let base = SyntheticMnist::new(SyntheticMnistConfig {
            label_flip_prob: 0.0,
            ..Default::default()
        });
        let flipped = SyntheticMnist::new(SyntheticMnistConfig {
            label_flip_prob: 0.5,
            ..Default::default()
        });
        let a = base.generate(500, 0);
        let b = flipped.generate(500, 0);
        // The flipped generator consumes extra RNG draws, so datasets diverge;
        // just verify both are valid and differently labelled somewhere.
        assert_ne!(a.labels(), b.labels());
    }

    #[test]
    #[should_panic(expected = "flip probability")]
    fn config_validation() {
        let _ = SyntheticMnist::new(SyntheticMnistConfig {
            label_flip_prob: 1.5,
            ..Default::default()
        });
    }
}
