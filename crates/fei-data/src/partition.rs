//! Federated dataset partitioning.
//!
//! The paper's prototype spreads 60 000 training samples uniformly over
//! `N = 20` edge servers (3 000 each) — the IID case that drives its `K* = 1`
//! conclusion. The label-sharded non-IID partitioner implements the classic
//! FedAvg pathological split so the effect of heterogeneity on the optimal
//! `(K, E)` can be explored beyond the paper.

use fei_sim::DetRng;
use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;

/// An assignment of dataset indices to clients.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    assignments: Vec<Vec<usize>>,
}

impl Partition {
    /// IID partition: shuffles all indices and deals them out as evenly as
    /// possible (the first `len % num_clients` clients receive one extra).
    ///
    /// # Panics
    ///
    /// Panics if `num_clients == 0`.
    pub fn iid(dataset_len: usize, num_clients: usize, rng: &mut DetRng) -> Self {
        assert!(num_clients > 0, "need at least one client");
        let mut indices: Vec<usize> = (0..dataset_len).collect();
        rng.shuffle(&mut indices);
        let base = dataset_len / num_clients;
        let extra = dataset_len % num_clients;
        let mut assignments = Vec::with_capacity(num_clients);
        let mut cursor = 0;
        for c in 0..num_clients {
            let take = base + usize::from(c < extra);
            assignments.push(indices[cursor..cursor + take].to_vec());
            cursor += take;
        }
        Self { assignments }
    }

    /// Pathological non-IID partition: sorts indices by label, cuts them into
    /// `num_clients * shards_per_client` contiguous shards, and deals each
    /// client `shards_per_client` random shards. With few shards per client
    /// each edge server sees only a couple of classes.
    ///
    /// # Panics
    ///
    /// Panics if `num_clients == 0`, `shards_per_client == 0`, or there are
    /// fewer samples than shards.
    pub fn by_label_shards(
        dataset: &Dataset,
        num_clients: usize,
        shards_per_client: usize,
        rng: &mut DetRng,
    ) -> Self {
        assert!(num_clients > 0, "need at least one client");
        assert!(shards_per_client > 0, "need at least one shard per client");
        let num_shards = num_clients * shards_per_client;
        assert!(
            dataset.len() >= num_shards,
            "need at least {num_shards} samples, have {}",
            dataset.len()
        );

        let mut by_label: Vec<usize> = (0..dataset.len()).collect();
        by_label.sort_by_key(|&i| dataset.label(i));

        let shard_len = dataset.len() / num_shards;
        let mut shard_ids: Vec<usize> = (0..num_shards).collect();
        rng.shuffle(&mut shard_ids);

        let mut assignments = vec![Vec::new(); num_clients];
        for (pos, &shard) in shard_ids.iter().enumerate() {
            let client = pos / shards_per_client;
            let start = shard * shard_len;
            // The last shard absorbs the remainder.
            let end = if shard == num_shards - 1 {
                dataset.len()
            } else {
                start + shard_len
            };
            assignments[client].extend_from_slice(&by_label[start..end]);
        }
        Self { assignments }
    }

    /// Dirichlet non-IID partition: for each class, class-member indices are
    /// split across clients with proportions drawn from a symmetric
    /// `Dirichlet(alpha)`. Small `alpha` (e.g. 0.1) produces heavily skewed
    /// clients; large `alpha` approaches IID. This is the standard
    /// heterogeneity dial of the FL literature, used here to explore how the
    /// paper's `K* = 1` conclusion shifts away from the IID setting.
    ///
    /// Clients left empty by the draw are topped up with one sample stolen
    /// from the largest client, so every client can train.
    ///
    /// # Panics
    ///
    /// Panics if `num_clients == 0`, `alpha <= 0`, or the dataset has fewer
    /// samples than clients.
    pub fn dirichlet(dataset: &Dataset, num_clients: usize, alpha: f64, rng: &mut DetRng) -> Self {
        assert!(num_clients > 0, "need at least one client");
        assert!(alpha > 0.0 && alpha.is_finite(), "alpha must be positive");
        assert!(
            dataset.len() >= num_clients,
            "need at least {num_clients} samples, have {}",
            dataset.len()
        );

        // Group indices per class, shuffled so cuts are random.
        let mut per_class: Vec<Vec<usize>> = vec![Vec::new(); dataset.num_classes()];
        for i in 0..dataset.len() {
            per_class[dataset.label(i)].push(i);
        }
        for class in &mut per_class {
            rng.shuffle(class);
        }

        let mut assignments = vec![Vec::new(); num_clients];
        for class in per_class {
            if class.is_empty() {
                continue;
            }
            // Symmetric Dirichlet(alpha) via normalized Gamma(alpha, 1)
            // draws (Marsaglia-Tsang needs alpha >= 1; boost small alpha via
            // Gamma(alpha) = Gamma(alpha + 1) * U^{1/alpha}).
            let weights: Vec<f64> = (0..num_clients).map(|_| gamma_sample(alpha, rng)).collect();
            let total: f64 = weights.iter().sum();
            // Convert proportions to cut points over the class indices.
            let mut cursor = 0usize;
            for (client, w) in weights.iter().enumerate() {
                let take = if client + 1 == num_clients {
                    class.len() - cursor
                } else {
                    ((w / total) * class.len() as f64).round() as usize
                };
                let take = take.min(class.len() - cursor);
                assignments[client].extend_from_slice(&class[cursor..cursor + take]);
                cursor += take;
            }
        }

        // Top up any empty client from the largest one.
        while let Some(empty) = assignments.iter().position(Vec::is_empty) {
            let largest = (0..num_clients)
                .max_by_key(|&c| assignments[c].len())
                .expect("invariant: num_clients > 0 was validated at entry");
            let moved = assignments[largest]
                .pop()
                .expect("invariant: with samples >= clients the largest client is non-empty");
            assignments[empty].push(moved);
        }
        Self { assignments }
    }

    /// Materializes one [`Dataset`] per client.
    pub fn apply(&self, dataset: &Dataset) -> Vec<Dataset> {
        self.assignments
            .iter()
            .map(|idx| dataset.subset(idx))
            .collect()
    }
}

/// One `Gamma(alpha, 1)` draw (Marsaglia-Tsang squeeze, with the small-alpha
/// boost `Gamma(a) = Gamma(a + 1) * U^{1/a}`).
fn gamma_sample(alpha: f64, rng: &mut DetRng) -> f64 {
    if alpha < 1.0 {
        let boost = rng.next_f64().max(f64::MIN_POSITIVE).powf(1.0 / alpha);
        return gamma_sample(alpha + 1.0, rng) * boost;
    }
    let d = alpha - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = rng.gaussian();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u = rng.next_f64().max(f64::MIN_POSITIVE);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{SyntheticMnist, SyntheticMnistConfig};

    fn dataset(n: usize) -> Dataset {
        SyntheticMnist::new(SyntheticMnistConfig::default()).generate(n, 0)
    }

    #[test]
    fn iid_covers_everything_exactly_once() {
        let mut rng = DetRng::new(1);
        let p = Partition::iid(100, 7, &mut rng);
        assert_eq!(p.assignments.len(), 7);
        assert_eq!(p.assignments.concat().len(), 100);
        let mut all: Vec<usize> = p.assignments.concat();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn iid_balances_sizes() {
        let mut rng = DetRng::new(2);
        let p = Partition::iid(100, 7, &mut rng);
        let sizes: Vec<usize> = p.assignments.iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap(), 1);
        // Paper setting: 60 000 over 20 -> exactly 3 000 each.
        let p = Partition::iid(60_000, 20, &mut rng);
        assert!(p.assignments.iter().all(|a| a.len() == 3_000));
    }

    #[test]
    fn iid_is_deterministic_per_seed() {
        let a = Partition::iid(50, 5, &mut DetRng::new(9));
        let b = Partition::iid(50, 5, &mut DetRng::new(9));
        let c = Partition::iid(50, 5, &mut DetRng::new(10));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn shard_partition_covers_everything() {
        let ds = dataset(400);
        let mut rng = DetRng::new(3);
        let p = Partition::by_label_shards(&ds, 10, 2, &mut rng);
        assert_eq!(p.assignments.concat().len(), 400);
        let mut all: Vec<usize> = p.assignments.concat();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 400);
    }

    #[test]
    fn shard_partition_is_label_skewed() {
        let ds = dataset(2_000);
        let mut rng = DetRng::new(4);
        let p = Partition::by_label_shards(&ds, 10, 2, &mut rng);
        let parts = p.apply(&ds);
        // With 2 shards per client out of 20, each client should see far
        // fewer than all 10 classes.
        let avg_classes: f64 = parts
            .iter()
            .map(|d| d.class_histogram().iter().filter(|&&c| c > 0).count() as f64)
            .sum::<f64>()
            / 10.0;
        assert!(
            avg_classes < 6.0,
            "average classes per client {avg_classes}"
        );
    }

    #[test]
    fn apply_materializes_subsets() {
        let ds = dataset(30);
        let p = Partition::iid(30, 3, &mut DetRng::new(5));
        let parts = p.apply(&ds);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts.iter().map(Dataset::len).sum::<usize>(), 30);
        // Spot-check one sample round-trips.
        let idx = p.assignments[1][0];
        assert_eq!(parts[1].sample(0), ds.sample(idx));
    }

    #[test]
    fn dirichlet_covers_everything_exactly_once() {
        let ds = dataset(600);
        let p = Partition::dirichlet(&ds, 8, 0.3, &mut DetRng::new(11));
        assert_eq!(p.assignments.concat().len(), 600);
        let mut all: Vec<usize> = p.assignments.concat();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 600);
        assert!(p.assignments.iter().all(|a| !a.is_empty()));
    }

    #[test]
    fn dirichlet_small_alpha_is_more_skewed_than_large() {
        let ds = dataset(2_000);
        let skew = |alpha: f64| -> f64 {
            let p = Partition::dirichlet(&ds, 10, alpha, &mut DetRng::new(5));
            let parts = p.apply(&ds);
            // Mean per-client max class share: 0.1 = uniform, 1.0 = single class.
            parts
                .iter()
                .map(|d| {
                    let hist = d.class_histogram();
                    let max = *hist.iter().max().unwrap() as f64;
                    max / d.len() as f64
                })
                .sum::<f64>()
                / 10.0
        };
        let sharp = skew(0.1);
        let smooth = skew(100.0);
        assert!(
            sharp > smooth + 0.1,
            "alpha=0.1 skew {sharp} should exceed alpha=100 skew {smooth}"
        );
        // Very large alpha approaches the IID per-class share.
        assert!(smooth < 0.25, "alpha=100 skew {smooth}");
    }

    #[test]
    fn dirichlet_is_deterministic_per_seed() {
        let ds = dataset(300);
        let a = Partition::dirichlet(&ds, 5, 0.5, &mut DetRng::new(3));
        let b = Partition::dirichlet(&ds, 5, 0.5, &mut DetRng::new(3));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn dirichlet_rejects_bad_alpha() {
        let ds = dataset(50);
        let _ = Partition::dirichlet(&ds, 5, 0.0, &mut DetRng::new(0));
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn iid_rejects_zero_clients() {
        let _ = Partition::iid(10, 0, &mut DetRng::new(0));
    }

    #[test]
    #[should_panic(expected = "need at least")]
    fn shards_reject_tiny_dataset() {
        let ds = dataset(5);
        let _ = Partition::by_label_shards(&ds, 10, 2, &mut DetRng::new(0));
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// Every IID partition is a permutation partition: covers all
        /// indices exactly once with balanced sizes.
        #[test]
        fn iid_partition_invariants(
            seed in any::<u64>(),
            len in 1usize..500,
            clients in 1usize..21,
        ) {
            let p = Partition::iid(len, clients, &mut DetRng::new(seed));
            prop_assert_eq!(p.assignments.len(), clients);
            prop_assert_eq!(p.assignments.concat().len(), len);
            let mut all: Vec<usize> = p.assignments.concat();
            all.sort_unstable();
            prop_assert_eq!(all, (0..len).collect::<Vec<_>>());
            let sizes: Vec<usize> = p.assignments.iter().map(Vec::len).collect();
            let spread = sizes.iter().max().unwrap() - sizes.iter().min().unwrap();
            prop_assert!(spread <= 1);
        }
    }
}
