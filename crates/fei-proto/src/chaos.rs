//! Deterministic wire-level chaos injection.
//!
//! A [`ChaosLink`] sits between two protocol endpoints and misbehaves on
//! purpose: it drops frames, duplicates them, reorders them by holding one
//! back, and flips bits in transit. Every misbehaviour draws from a
//! [`fei_sim::DetRng`] forked per frame sequence number, so a `(seed,
//! traffic)` pair replays the exact same carnage — a failing chaos campaign
//! is a unit test, not a flake.

use fei_sim::DetRng;

/// One addressed frame in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Envelope {
    /// Where the frame is going, in the driver's own addressing (the
    /// [`crate::Cluster`] routes by connection id).
    pub to: u64,
    /// Encoded wire frame.
    pub bytes: Vec<u8>,
}

/// Probabilities of each misbehaviour, applied independently per frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Probability a frame vanishes.
    pub drop_prob: f64,
    /// Probability a surviving frame is delivered twice.
    pub dup_prob: f64,
    /// Probability a surviving frame is held one delivery cycle, landing
    /// after frames sent later.
    pub reorder_prob: f64,
    /// Probability one byte of a surviving frame is flipped.
    pub corrupt_prob: f64,
    /// Seed for the link's deterministic misbehaviour stream.
    pub seed: u64,
}

impl ChaosConfig {
    /// A perfectly honest link: nothing dropped, nothing touched.
    pub fn quiet(seed: u64) -> Self {
        Self {
            drop_prob: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            corrupt_prob: 0.0,
            seed,
        }
    }

    /// Validates probabilities, panicking on nonsense.
    ///
    /// # Panics
    ///
    /// Panics when any probability is outside `[0, 1]` or not finite.
    pub(crate) fn validated(self) -> Self {
        for (name, p) in [
            ("drop_prob", self.drop_prob),
            ("dup_prob", self.dup_prob),
            ("reorder_prob", self.reorder_prob),
            ("corrupt_prob", self.corrupt_prob),
        ] {
            assert!(
                p.is_finite() && (0.0..=1.0).contains(&p),
                "{name} must be a probability, got {p}"
            );
        }
        self
    }
}

/// Counters of what the link did to traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Frames offered to the link.
    pub offered: u64,
    /// Frames silently dropped.
    pub dropped: u64,
    /// Extra copies delivered.
    pub duplicated: u64,
    /// Frames held back one cycle.
    pub reordered: u64,
    /// Frames delivered with a flipped byte.
    pub corrupted: u64,
    /// Frames ultimately delivered (including duplicates and corruptions).
    pub delivered: u64,
}

/// What the fate stream decided for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fate {
    drop: bool,
    dup: bool,
    reorder: bool,
    corrupt: bool,
    /// Index of the byte to flip when corrupting.
    corrupt_at: u64,
    /// Bit to flip within that byte (1..=7 so the byte always changes).
    corrupt_bit: u64,
}

/// A deterministic lossy, duplicating, reordering, corrupting link.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosLink {
    config: ChaosConfig,
    rng: DetRng,
    /// Monotone per-frame sequence; each frame's fate forks from it.
    sequence: u64,
    /// Frames held back by reordering, delivered next drain.
    held: Vec<Envelope>,
    stats: ChaosStats,
}

impl ChaosLink {
    /// Creates a link with the given misbehaviour profile.
    pub(crate) fn new(config: ChaosConfig) -> Self {
        let config = config.validated();
        Self {
            rng: DetRng::new(config.seed),
            config,
            sequence: 0,
            held: Vec::new(),
            stats: ChaosStats::default(),
        }
    }

    /// Counters of the link's misbehaviour so far.
    pub(crate) fn stats(&self) -> ChaosStats {
        self.stats
    }

    /// Decides one frame's fate from its sequence number alone.
    fn fate(&self, sequence: u64) -> Fate {
        let mut rng = self.rng.fork(sequence);
        // Draw every coordinate unconditionally so the stream shape never
        // depends on earlier outcomes — fates are pure in (seed, sequence).
        let drop = rng.next_f64() < self.config.drop_prob;
        let dup = rng.next_f64() < self.config.dup_prob;
        let reorder = rng.next_f64() < self.config.reorder_prob;
        let corrupt = rng.next_f64() < self.config.corrupt_prob;
        let corrupt_at = rng.next_u64();
        let corrupt_bit = 1 + rng.next_below(7);
        Fate {
            drop,
            dup,
            reorder,
            corrupt,
            corrupt_at,
            corrupt_bit,
        }
    }

    /// Offers one frame to the link, delivering into `out` whatever
    /// survives this cycle (held-back frames surface on the next
    /// [`ChaosLink::drain`]).
    pub(crate) fn push(&mut self, envelope: Envelope, out: &mut Vec<Envelope>) {
        let fate = self.fate(self.sequence);
        self.sequence += 1;
        self.stats.offered += 1;
        if fate.drop {
            self.stats.dropped += 1;
            return;
        }
        let mut delivered = envelope;
        if fate.corrupt && !delivered.bytes.is_empty() {
            let at = usize::try_from(fate.corrupt_at % delivered.bytes.len() as u64)
                .expect("invariant: a remainder below bytes.len() fits usize");
            delivered.bytes[at] ^= 1u8 << (fate.corrupt_bit & 7);
            self.stats.corrupted += 1;
        }
        if fate.dup {
            self.stats.duplicated += 1;
            self.stats.delivered += 1;
            out.push(delivered.clone());
        }
        if fate.reorder {
            self.stats.reordered += 1;
            self.held.push(delivered);
        } else {
            self.stats.delivered += 1;
            out.push(delivered);
        }
    }

    /// Releases every held-back frame, ending the current delivery cycle.
    pub(crate) fn drain(&mut self, out: &mut Vec<Envelope>) {
        self.stats.delivered += self.held.len() as u64;
        out.append(&mut self.held);
    }

    /// Frames currently held back by reordering.
    #[cfg(test)]
    fn held_len(&self) -> usize {
        self.held.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn envelope(to: u64, tag: u8) -> Envelope {
        Envelope {
            to,
            bytes: vec![tag; 16],
        }
    }

    fn run_traffic(config: ChaosConfig, frames: usize) -> (Vec<Envelope>, ChaosStats) {
        let mut link = ChaosLink::new(config);
        let mut out = Vec::new();
        for i in 0..frames {
            link.push(envelope(i as u64 % 5, i as u8), &mut out);
        }
        link.drain(&mut out);
        (out, link.stats())
    }

    #[test]
    fn quiet_link_is_an_identity() {
        let (out, stats) = run_traffic(ChaosConfig::quiet(1), 50);
        assert_eq!(out.len(), 50);
        assert_eq!(
            stats.dropped + stats.duplicated + stats.reordered + stats.corrupted,
            0
        );
        assert_eq!(stats.delivered, 50);
        for (i, env) in out.iter().enumerate() {
            assert_eq!(env.bytes, vec![i as u8; 16], "quiet link must not mutate");
        }
    }

    #[test]
    fn same_seed_same_carnage() {
        let config = ChaosConfig {
            drop_prob: 0.2,
            dup_prob: 0.2,
            reorder_prob: 0.2,
            corrupt_prob: 0.2,
            seed: 77,
        };
        let (a, sa) = run_traffic(config, 200);
        let (b, sb) = run_traffic(config, 200);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut config = ChaosConfig {
            drop_prob: 0.3,
            dup_prob: 0.1,
            reorder_prob: 0.1,
            corrupt_prob: 0.1,
            seed: 1,
        };
        let (a, _) = run_traffic(config, 200);
        config.seed = 2;
        let (b, _) = run_traffic(config, 200);
        assert_ne!(a, b);
    }

    #[test]
    fn all_misbehaviours_fire_under_heavy_chaos() {
        let (_, stats) = run_traffic(
            ChaosConfig {
                drop_prob: 0.3,
                dup_prob: 0.3,
                reorder_prob: 0.3,
                corrupt_prob: 0.3,
                seed: 9,
            },
            500,
        );
        assert!(stats.dropped > 0, "{stats:?}");
        assert!(stats.duplicated > 0, "{stats:?}");
        assert!(stats.reordered > 0, "{stats:?}");
        assert!(stats.corrupted > 0, "{stats:?}");
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let (out, stats) = run_traffic(
            ChaosConfig {
                drop_prob: 0.0,
                dup_prob: 0.0,
                reorder_prob: 0.0,
                corrupt_prob: 1.0,
                seed: 4,
            },
            20,
        );
        assert_eq!(stats.corrupted, 20);
        for (i, env) in out.iter().enumerate() {
            let clean = vec![i as u8; 16];
            let flipped: u32 = env
                .bytes
                .iter()
                .zip(&clean)
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(flipped, 1, "exactly one bit flips per corruption");
        }
    }

    #[test]
    fn everything_dropped_delivers_nothing() {
        let (out, stats) = run_traffic(
            ChaosConfig {
                drop_prob: 1.0,
                dup_prob: 0.5,
                reorder_prob: 0.5,
                corrupt_prob: 0.5,
                seed: 6,
            },
            40,
        );
        assert!(out.is_empty());
        assert_eq!(stats.dropped, 40);
        assert_eq!(stats.delivered, 0);
    }

    #[test]
    fn reordered_frames_land_after_the_drain() {
        let config = ChaosConfig {
            drop_prob: 0.0,
            dup_prob: 0.0,
            reorder_prob: 1.0,
            corrupt_prob: 0.0,
            seed: 3,
        };
        let mut link = ChaosLink::new(config);
        let mut out = Vec::new();
        link.push(envelope(0, 1), &mut out);
        assert!(out.is_empty(), "held back");
        assert_eq!(link.held_len(), 1);
        link.drain(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(link.held_len(), 0);
    }

    #[test]
    #[should_panic(expected = "must be a probability")]
    fn nonsense_probability_is_rejected() {
        let _ = ChaosLink::new(ChaosConfig {
            drop_prob: 1.5,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            corrupt_prob: 0.0,
            seed: 0,
        });
    }
}
