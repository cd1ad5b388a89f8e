//! The coordinator's decision core and the trace-replay oracle.
//!
//! [`CoordinatorCore`] is a [`Coordinator`] plus the bookkeeping that makes
//! runs comparable ([`NodeAudit`]). The live socket node
//! ([`crate::node::CoordinatorNode`]) and [`replay_trace`] drive **this**
//! type with the same [`TraceEvent`]s, so a socket run is *conformant* iff
//! its live audit equals the replay of its own trace — journal bytes, round
//! verdicts and [`ControlStats`], bit for bit. The committed model sets
//! need no audit of their own: each is [`crate::JournalState::committed`]
//! at its commit, a fold of the journal bytes.
//!
//! The core holds the decision history once, in its coordinator's journal.
//! A [`TraceEvent::Recover`] hands that journal, already folded, to the new
//! incarnation in place ([`Coordinator::recover`] would decode a copy of
//! its bytes again).

use crate::cluster::RoundVerdict;
use crate::coordinator::{ControlStats, Coordinator, CoordinatorConfig, Effect};
use crate::error::ProtoError;
use crate::frames::ControlFrame;
use crate::trace::TraceEvent;

/// Everything a run's coordinator decided, in comparable form. Two audits
/// being `==` means the underlying decision histories were bit-identical:
/// same journal bytes (and so the same committed model payloads, which
/// they fold to), same round verdicts, same traffic counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeAudit {
    /// Traffic and verdict counters, folded across incarnations.
    pub stats: ControlStats,
    /// The write-ahead journal, byte for byte.
    pub journal: Vec<u8>,
    /// Every round verdict, in close order.
    pub round_log: Vec<RoundVerdict>,
    /// The final incarnation number.
    pub epoch: u64,
}

/// What [`CoordinatorCore::apply`] did with one event.
#[derive(Debug)]
pub(crate) struct Applied {
    /// The transition's effects, or its typed rejection.
    ///
    /// Frame rejections are already counted in the stats; replay callers
    /// ignore them, node callers may react (e.g. nudge an unknown client).
    /// An error from [`TraceEvent::Recover`] means a corrupt journal and is
    /// fatal.
    pub outcome: Result<Vec<Effect>, ProtoError>,
    /// The participant a delivered frame identified itself as — known
    /// whenever the frame decoded, whether or not the coordinator then
    /// accepted it.
    pub sender: Option<u64>,
    /// Whether the delivered frame was a [`ControlFrame::Shutdown`].
    pub shutdown: bool,
}

/// The shared decision core: a [`Coordinator`] plus the bookkeeping that
/// makes runs comparable ([`NodeAudit`]). Both the live socket node and
/// the trace-replay oracle drive **this** type with the same
/// [`TraceEvent`]s — conformance is structural, not aspirational.
#[derive(Debug)]
pub(crate) struct CoordinatorCore {
    config: CoordinatorConfig,
    global: Vec<u8>,
    coordinator: Coordinator,
    /// Stats of previous incarnations (folded in at each recovery).
    carry: ControlStats,
    round_log: Vec<RoundVerdict>,
}

impl CoordinatorCore {
    /// A fresh core (coordinator idle, rendezvous not yet open).
    pub(crate) fn new(config: CoordinatorConfig, global: Vec<u8>) -> Self {
        let mut coordinator = Coordinator::new(config.clone());
        coordinator.set_global(global.clone());
        Self {
            config,
            global,
            coordinator,
            carry: ControlStats::default(),
            round_log: Vec::new(),
        }
    }

    /// The live coordinator.
    pub(crate) fn coordinator(&self) -> &Coordinator {
        &self.coordinator
    }

    /// Rounds that have closed (committed or aborted) across the run.
    pub(crate) fn rounds_closed(&self) -> u64 {
        self.round_log.len() as u64
    }

    /// Traffic counters folded across incarnations.
    pub(crate) fn stats(&self) -> ControlStats {
        let mut stats = self.carry;
        stats.absorb(self.coordinator.stats());
        stats
    }

    /// Applies one event to the decision core, exactly as the live node
    /// does — this method *is* the conformance boundary. A delivered frame
    /// is decoded (and its CRC verified) here and nowhere else; what the
    /// caller needs to know about it rides back in the [`Applied`].
    pub(crate) fn apply(&mut self, event: &TraceEvent) -> Applied {
        let (mut sender, mut shutdown) = (None, false);
        let outcome = match event {
            TraceEvent::Open => self.coordinator.open_rendezvous().map(|()| Vec::new()),
            TraceEvent::Deliver { tick, bytes } => {
                self.coordinator.admit(bytes).and_then(|frame| {
                    sender = frame.sender();
                    shutdown = matches!(frame, ControlFrame::Shutdown);
                    self.coordinator.handle_control(frame, *tick)
                })
            }
            // A failed attempt (quorum) still expired leases; the journal
            // mutation is the reason the attempt was recorded.
            TraceEvent::StartRound { tick } => {
                Ok(self.coordinator.start_round(*tick).unwrap_or_default())
            }
            TraceEvent::Tick { tick } => Ok(self.coordinator.tick(*tick)),
            TraceEvent::Recover { tick, journal_len } => self.recover(*journal_len, *tick),
        };
        if let Ok(effects) = &outcome {
            self.observe(effects, event.tick());
        }
        Applied {
            outcome,
            sender,
            shutdown,
        }
    }

    /// Replaces the coordinator with the next incarnation, recovered at
    /// `now` from the first `journal_len` bytes of its journal, and folds
    /// the outgoing incarnation's stats into the carry. A node records its
    /// whole journal, which the new incarnation takes over in place; a
    /// shorter length (no node records one) recovers from a copy of that
    /// prefix, folded again.
    fn recover(&mut self, journal_len: u64, now: u64) -> Result<Vec<Effect>, ProtoError> {
        self.carry.absorb(self.coordinator.stats());
        let journal = self.coordinator.journal();
        let effects = match usize::try_from(journal_len) {
            Ok(len) if len < journal.len() => {
                let (recovered, effects) =
                    Coordinator::recover(self.config.clone(), &journal.bytes()[..len], now)?;
                self.coordinator = recovered;
                effects
            }
            _ => self.coordinator.restart(now),
        };
        self.coordinator.set_global(self.global.clone());
        Ok(effects)
    }

    /// Records round verdicts.
    fn observe(&mut self, effects: &[Effect], tick: u64) {
        let verdicts = effects.iter().filter_map(|e| RoundVerdict::of(e, tick));
        self.round_log.extend(verdicts);
    }

    /// The comparable summary of everything decided. By value: the journal
    /// moves into the audit instead of being copied beside itself.
    pub(crate) fn into_audit(self) -> NodeAudit {
        NodeAudit {
            stats: self.stats(),
            epoch: self.coordinator.epoch(),
            journal: self.coordinator.into_journal().into_bytes(),
            round_log: self.round_log,
        }
    }
}

/// The oracle: re-drives a fresh decision core from a recorded trace,
/// with no sockets and no clock. A socket run is *conformant* iff its
/// live [`NodeAudit`] equals `replay_trace` of its own trace.
pub fn replay_trace(config: &CoordinatorConfig, global: &[u8], events: &[TraceEvent]) -> NodeAudit {
    let mut core = CoordinatorCore::new(config.clone(), global.to_vec());
    for event in events {
        // Rejections are part of the recorded history: the live node
        // counted them in the stats and moved on, and so does the oracle.
        let _ = core.apply(event);
    }
    core.into_audit()
}
