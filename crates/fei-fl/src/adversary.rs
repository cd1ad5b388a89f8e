//! Deterministic adversarial (Byzantine) client behaviors.
//!
//! Complements [`crate::fault`]'s *omission* faults with *commission*
//! faults: a compromised device completes the round protocol but ships a
//! hostile update. Four classic behaviors are modeled:
//!
//! * **sign-flip** — upload `ω_g − (ω − ω_g)`: the local progress reflected
//!   through the global model, steering aggregation backwards;
//! * **scaled-update** (model boosting) — upload `ω_g + λ(ω − ω_g)` with
//!   `λ ≫ 1`, amplifying the attacker's influence on the mean;
//! * **Gaussian noise** — add `N(0, σ²)` noise to every parameter;
//! * **label-flip** — train honestly but on deterministically flipped
//!   labels (`y ↦ C−1−y`), a data-poisoning attack.
//!
//! Like [`crate::fault::FaultInjector`], every decision is a **pure
//! function of `(device, round)`** under the adversary's seed: the
//! malicious set is a seeded draw at construction, and per-round noise
//! comes from a decorrelated cell RNG. The serial and threaded engines
//! therefore observe bit-identical attacks regardless of thread
//! interleaving.

use std::collections::BTreeSet;

use fei_data::Dataset;
use fei_sim::DetRng;

/// Deterministic label-flip transform: every label `y` becomes `C−1−y`
/// over a copy of `data`. Both engines derive a compromised device's
/// training set through this single function, so they poison identically.
pub(crate) fn flip_dataset_labels(data: &Dataset) -> Dataset {
    let classes = data.num_classes();
    let mut out = Dataset::empty(data.dim(), classes);
    for (x, y) in data.iter() {
        out.push(x, classes - 1 - y);
    }
    out
}

/// Stream salt keeping noise draws decorrelated from fault streams.
const SALT_NOISE: u64 = 0xBAD_5EED;

/// What a compromised device does each round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackBehavior {
    /// Upload the local progress reflected through the global model.
    SignFlip,
    /// Upload the local progress scaled by `boost`, amplifying influence.
    ScaledUpdate {
        /// Amplification factor `λ` (> 1 boosts, < 0 reverses and boosts).
        boost: f64,
    },
    /// Add zero-mean Gaussian noise to every uploaded parameter.
    GaussianNoise {
        /// Standard deviation `σ` of the added noise.
        std_dev: f64,
    },
    /// Train honestly on deterministically flipped labels (`y ↦ C−1−y`).
    LabelFlip,
}

/// Configuration of the adversarial cohort.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversarySpec {
    /// Fraction of the fleet that is compromised, in `[0, 1)`. The
    /// malicious device count is `⌊fraction · N⌋`.
    pub fraction: f64,
    /// The attack every compromised device runs.
    pub behavior: AttackBehavior,
    /// Seed of the malicious-set draw and the noise streams. Independent of
    /// the training and fault seeds.
    pub seed: u64,
}

impl AdversarySpec {
    /// A sign-flip cohort at `fraction`.
    pub fn sign_flip(fraction: f64) -> Self {
        Self {
            fraction,
            behavior: AttackBehavior::SignFlip,
            seed: 0xAD50,
        }
    }

    fn validate(&self) {
        assert!(
            (0.0..1.0).contains(&self.fraction),
            "attacker fraction must be in [0, 1), got {}",
            self.fraction
        );
        match self.behavior {
            AttackBehavior::ScaledUpdate { boost } => {
                assert!(boost.is_finite(), "boost must be finite, got {boost}");
            }
            AttackBehavior::GaussianNoise { std_dev } => {
                assert!(
                    std_dev.is_finite() && std_dev >= 0.0,
                    "noise std_dev must be finite and non-negative, got {std_dev}"
                );
            }
            AttackBehavior::SignFlip | AttackBehavior::LabelFlip => {}
        }
    }
}

/// A seeded, stateless adversarial cohort over a fleet of `n` devices.
///
/// Construct once per campaign; query per `(device, round)`. Identical
/// `(spec, n)` yield identical cohorts and attacks on every engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Adversary {
    spec: AdversarySpec,
    malicious: BTreeSet<usize>,
}

impl Adversary {
    /// Draws the malicious cohort: `⌊fraction · n⌋` devices picked by a
    /// seeded shuffle of `0..n`.
    ///
    /// # Panics
    ///
    /// Panics on a fraction outside `[0, 1)`, a non-finite boost, or a
    /// negative noise deviation.
    pub(crate) fn new(spec: AdversarySpec, n: usize) -> Self {
        spec.validate();
        let count = (spec.fraction * n as f64).floor() as usize;
        let mut ids: Vec<usize> = (0..n).collect();
        DetRng::new(spec.seed).fork(0xC0607).shuffle(&mut ids);
        let malicious: BTreeSet<usize> = ids.into_iter().take(count).collect();
        Self { spec, malicious }
    }

    /// Whether `device` is compromised.
    pub fn is_malicious(&self, device: usize) -> bool {
        self.malicious.contains(&device)
    }

    /// Whether `device` trains on flipped labels (label-flip cohort only).
    pub(crate) fn flips_labels(&self, device: usize) -> bool {
        matches!(self.spec.behavior, AttackBehavior::LabelFlip) && self.is_malicious(device)
    }

    /// Applies `device`'s attack at `round` to its trained parameters
    /// (in place), given the round's reference global model. Honest devices
    /// and [`AttackBehavior::LabelFlip`] (which poisons training, not the
    /// upload) leave `params` untouched.
    ///
    /// Pure in `(device, round)`: the Gaussian stream is re-derived from the
    /// cell, never from shared state.
    pub(crate) fn poison(&self, device: usize, round: usize, global: &[f64], params: &mut [f64]) {
        if !self.is_malicious(device) {
            return;
        }
        match self.spec.behavior {
            AttackBehavior::LabelFlip => {}
            AttackBehavior::SignFlip => {
                for (p, &g) in params.iter_mut().zip(global) {
                    *p = g - (*p - g);
                }
            }
            AttackBehavior::ScaledUpdate { boost } => {
                for (p, &g) in params.iter_mut().zip(global) {
                    *p = g + boost * (*p - g);
                }
            }
            AttackBehavior::GaussianNoise { std_dev } => {
                let mut rng = self.cell_rng(device, round);
                for p in params.iter_mut() {
                    *p += rng.gaussian_with(0.0, std_dev);
                }
            }
        }
    }

    /// A decorrelated RNG for one `(device, round)` noise cell.
    fn cell_rng(&self, device: usize, round: usize) -> DetRng {
        let mix = (device as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((round as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(SALT_NOISE.wrapping_mul(0x94D0_49BB_1331_11EB));
        DetRng::new(self.spec.seed ^ mix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(behavior: AttackBehavior) -> AdversarySpec {
        AdversarySpec {
            fraction: 0.4,
            behavior,
            seed: 7,
        }
    }

    #[test]
    fn cohort_size_is_floor_of_fraction() {
        let adv = Adversary::new(spec(AttackBehavior::SignFlip), 10);
        assert_eq!(adv.malicious.len(), 4);
        let none = Adversary::new(AdversarySpec::sign_flip(0.0), 10);
        assert_eq!(none.malicious.len(), 0);
        let small = Adversary::new(AdversarySpec::sign_flip(0.19), 10);
        assert_eq!(small.malicious.len(), 1);
    }

    #[test]
    fn cohort_is_deterministic_per_seed() {
        let a = Adversary::new(spec(AttackBehavior::SignFlip), 20);
        let b = Adversary::new(spec(AttackBehavior::SignFlip), 20);
        assert_eq!(a, b);
        let mut other = spec(AttackBehavior::SignFlip);
        other.seed = 8;
        let c = Adversary::new(other, 20);
        assert_ne!(
            a.malicious, c.malicious,
            "different seeds should draw different cohorts"
        );
    }

    #[test]
    fn sign_flip_reflects_through_global() {
        let adv = Adversary::new(
            AdversarySpec {
                fraction: 0.5,
                behavior: AttackBehavior::SignFlip,
                seed: 7,
            },
            2,
        );
        let mallory = *adv.malicious.first().unwrap();
        let global = [1.0, -2.0];
        let mut params = vec![3.0, 0.0];
        adv.poison(mallory, 0, &global, &mut params);
        assert_eq!(params, vec![-1.0, -4.0]);
    }

    #[test]
    fn honest_devices_are_untouched() {
        let adv = Adversary::new(spec(AttackBehavior::SignFlip), 10);
        let honest = (0..10).find(|&d| !adv.is_malicious(d)).unwrap();
        let mut params = vec![3.0, 0.0];
        adv.poison(honest, 0, &[0.0, 0.0], &mut params);
        assert_eq!(params, vec![3.0, 0.0]);
    }

    #[test]
    fn scaled_update_boosts_progress() {
        let adv = Adversary::new(
            AdversarySpec {
                fraction: 0.5,
                behavior: AttackBehavior::ScaledUpdate { boost: 10.0 },
                seed: 7,
            },
            2,
        );
        let mallory = *adv.malicious.first().unwrap();
        let mut params = vec![1.1];
        adv.poison(mallory, 3, &[1.0], &mut params);
        assert!((params[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gaussian_noise_is_pure_in_device_and_round() {
        let mk = || {
            Adversary::new(
                AdversarySpec {
                    fraction: 0.5,
                    behavior: AttackBehavior::GaussianNoise { std_dev: 1.0 },
                    seed: 11,
                },
                4,
            )
        };
        let (a, b) = (mk(), mk());
        let mallory = *a.malicious.first().unwrap();
        let mut pa = vec![0.0; 8];
        let mut pb = vec![0.0; 8];
        // Query b at a decoy round first: cell purity means no state leaks.
        let mut decoy = vec![0.0; 8];
        b.poison(mallory, 9, &[0.0; 8], &mut decoy);
        a.poison(mallory, 2, &[0.0; 8], &mut pa);
        b.poison(mallory, 2, &[0.0; 8], &mut pb);
        assert_eq!(pa, pb);
        assert!(pa.iter().any(|&p| p != 0.0), "noise must perturb");
    }

    #[test]
    fn label_flip_marks_training_not_upload() {
        let adv = Adversary::new(spec(AttackBehavior::LabelFlip), 10);
        let mallory = *adv.malicious.first().unwrap();
        assert!(adv.flips_labels(mallory));
        let honest = (0..10).find(|&d| !adv.is_malicious(d)).unwrap();
        assert!(!adv.flips_labels(honest));
        let mut params = vec![5.0];
        adv.poison(mallory, 0, &[0.0], &mut params);
        assert_eq!(params, vec![5.0], "label-flip must not touch the upload");
    }

    #[test]
    fn flip_dataset_labels_reverses_classes_and_keeps_features() {
        let mut d = Dataset::empty(1, 3);
        d.push(&[0.5], 0);
        d.push(&[0.6], 2);
        d.push(&[0.7], 1);
        let f = flip_dataset_labels(&d);
        assert_eq!(f.labels(), &[2, 0, 1]);
        assert_eq!(f.sample(0), &[0.5]);
        assert_eq!(f.num_classes(), 3);
    }

    #[test]
    #[should_panic(expected = "attacker fraction")]
    fn rejects_full_fraction() {
        let _ = Adversary::new(AdversarySpec::sign_flip(1.0), 10);
    }
}
