//! Client (edge-server) selection strategies.
//!
//! The paper selects a uniformly random subset `𝒦_t` of `K` edge servers in
//! each round (§III-A step 2). Round-robin and all-clients strategies are
//! provided for ablations.

use fei_sim::DetRng;

/// How the coordinator picks the `K` participants of each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionStrategy {
    /// Uniformly random `K`-subset per round (the paper's setting).
    #[default]
    UniformRandom,
    /// Deterministic rotation: round `t` takes clients
    /// `{(tK) mod N, …, (tK + K - 1) mod N}`.
    RoundRobin,
}

/// Stateful selector bound to a population size and strategy.
#[derive(Debug, Clone)]
pub struct ClientSelector {
    strategy: SelectionStrategy,
    num_clients: usize,
    rng: DetRng,
}

impl ClientSelector {
    /// Creates a selector over `num_clients` clients.
    ///
    /// # Panics
    ///
    /// Panics if `num_clients == 0`.
    pub fn new(strategy: SelectionStrategy, num_clients: usize, seed: u64) -> Self {
        assert!(num_clients > 0, "need at least one client");
        Self {
            strategy,
            num_clients,
            rng: DetRng::new(seed).fork(0x5E1E),
        }
    }

    /// Selects `k` distinct client indices for round `round`, sorted
    /// ascending.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > num_clients`.
    pub fn select(&mut self, round: usize, k: usize) -> Vec<usize> {
        assert!(k > 0, "must select at least one client");
        assert!(
            k <= self.num_clients,
            "cannot select {k} of {} clients",
            self.num_clients
        );
        let mut chosen = match self.strategy {
            SelectionStrategy::UniformRandom => self.rng.sample_indices(self.num_clients, k),
            SelectionStrategy::RoundRobin => {
                (0..k).map(|i| (round * k + i) % self.num_clients).collect()
            }
        };
        chosen.sort_unstable();
        chosen.dedup();
        // Round-robin with k close to N can wrap onto itself; pad from the
        // remaining clients deterministically.
        let mut next = 0;
        while chosen.len() < k {
            if !chosen.contains(&next) {
                chosen.push(next);
                chosen.sort_unstable();
            }
            next += 1;
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_selection_is_distinct_sorted_subset() {
        let mut sel = ClientSelector::new(SelectionStrategy::UniformRandom, 20, 1);
        for round in 0..50 {
            let s = sel.select(round, 10);
            assert_eq!(s.len(), 10);
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            assert!(s.iter().all(|&c| c < 20));
        }
    }

    #[test]
    fn random_selection_varies_across_rounds() {
        let mut sel = ClientSelector::new(SelectionStrategy::UniformRandom, 20, 1);
        let a = sel.select(0, 5);
        let b = sel.select(1, 5);
        // Identical selections in consecutive rounds are possible but
        // astronomically unlikely over 10 draws.
        let c = sel.select(2, 5);
        assert!(a != b || b != c);
    }

    #[test]
    fn random_selection_reproducible_per_seed() {
        let mut a = ClientSelector::new(SelectionStrategy::UniformRandom, 20, 9);
        let mut b = ClientSelector::new(SelectionStrategy::UniformRandom, 20, 9);
        for round in 0..10 {
            assert_eq!(a.select(round, 7), b.select(round, 7));
        }
    }

    #[test]
    fn round_robin_rotates() {
        let mut sel = ClientSelector::new(SelectionStrategy::RoundRobin, 6, 0);
        assert_eq!(sel.select(0, 2), vec![0, 1]);
        assert_eq!(sel.select(1, 2), vec![2, 3]);
        assert_eq!(sel.select(2, 2), vec![4, 5]);
        assert_eq!(sel.select(3, 2), vec![0, 1]);
    }

    #[test]
    fn round_robin_covers_everyone_fairly() {
        let mut sel = ClientSelector::new(SelectionStrategy::RoundRobin, 6, 0);
        let mut counts = [0usize; 6];
        for round in 0..12 {
            for c in sel.select(round, 2) {
                counts[c] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == 4), "{counts:?}");
    }

    #[test]
    fn round_robin_wrap_pads_to_k_distinct() {
        let mut sel = ClientSelector::new(SelectionStrategy::RoundRobin, 5, 0);
        // k=4, round 1: raw picks {4,0,1,2} -> fine; round with wrap onto
        // itself (k=5 over 5 clients always picks everything).
        let s = sel.select(3, 5);
        assert_eq!(s, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn select_all_is_identity_set() {
        let mut sel = ClientSelector::new(SelectionStrategy::UniformRandom, 8, 3);
        assert_eq!(sel.select(0, 8), (0..8).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cannot select")]
    fn rejects_oversized_k() {
        let mut sel = ClientSelector::new(SelectionStrategy::UniformRandom, 3, 0);
        let _ = sel.select(0, 4);
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn rejects_zero_selection() {
        let mut sel = ClientSelector::new(SelectionStrategy::UniformRandom, 3, 0);
        let _ = sel.select(0, 0);
    }
}
