//! Energy ledger separating useful spend from waste.
//!
//! The paper's objective minimizes total system energy, implicitly assuming
//! every joule advances the model. Under faults that assumption breaks:
//! abandoned rounds burn collection, training, and upload energy for zero
//! model progress, and lossy uplinks burn energy on retransmissions. The
//! [`EnergyLedger`] makes that split explicit so fault campaigns can report
//! *useful* energy-to-accuracy next to raw totals.

/// What a charged joule bought.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnergyUse {
    /// Spend from a committed round — it moved the global model.
    Useful,
    /// Spend from a failed or abandoned round — no model progress.
    Wasted,
    /// Spend on upload retransmissions (lost or corrupted frames).
    Retransmit,
    /// Spend by (or on) compromised devices: adversarial training and
    /// uploads, and the energy burned producing updates the coordinator's
    /// screen rejected. It bought no progress — arguably negative progress.
    Poisoned,
    /// Spend on coordinator-protocol control frames: join handshakes,
    /// heartbeats, selection notices, and commit/abort broadcasts. Pure
    /// coordination overhead — it keeps the fleet coherent but moves no
    /// model bytes.
    Control,
}

/// One charge against the ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Global round the charge belongs to.
    pub round: usize,
    /// Classification of the spend.
    pub usage: EnergyUse,
    /// Amount, joules.
    pub joules: f64,
    /// What the energy was spent on (e.g. `"training"`, `"upload"`).
    pub label: &'static str,
}

/// An append-only account of where a campaign's energy went.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EnergyLedger {
    entries: Vec<LedgerEntry>,
    useful_j: f64,
    wasted_j: f64,
    retransmit_j: f64,
    poisoned_j: f64,
    control_j: f64,
}

impl EnergyLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `joules` of `usage` energy to `round`.
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite charge — the ledger only ever
    /// accumulates physically spent energy.
    pub fn charge(&mut self, round: usize, usage: EnergyUse, joules: f64, label: &'static str) {
        assert!(
            joules.is_finite() && joules >= 0.0,
            "energy charge must be finite and non-negative, got {joules}"
        );
        match usage {
            EnergyUse::Useful => self.useful_j += joules,
            EnergyUse::Wasted => self.wasted_j += joules,
            EnergyUse::Retransmit => self.retransmit_j += joules,
            EnergyUse::Poisoned => self.poisoned_j += joules,
            EnergyUse::Control => self.control_j += joules,
        }
        self.entries.push(LedgerEntry {
            round,
            usage,
            joules,
            label,
        });
    }

    /// All charges, in the order they were made.
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// Joules that advanced the model.
    pub fn useful_joules(&self) -> f64 {
        self.useful_j
    }

    /// Joules burned by failed or abandoned rounds.
    pub fn wasted_joules(&self) -> f64 {
        self.wasted_j
    }

    /// Joules burned re-sending lost or corrupted frames.
    pub fn retransmit_joules(&self) -> f64 {
        self.retransmit_j
    }

    /// Joules burned by compromised devices and screened-out updates.
    pub fn poisoned_joules(&self) -> f64 {
        self.poisoned_j
    }

    /// Joules spent on coordinator-protocol control frames.
    pub fn control_joules(&self) -> f64 {
        self.control_j
    }

    /// Everything spent, joules.
    pub fn total_joules(&self) -> f64 {
        self.useful_j + self.wasted_j + self.retransmit_j + self.poisoned_j + self.control_j
    }

    /// Fraction of total energy that bought no model progress (waste,
    /// retransmissions, poisoned spend, and protocol control traffic).
    /// Zero on an empty ledger.
    pub fn overhead_fraction(&self) -> f64 {
        let total = self.total_joules();
        // fei-lint: allow(float-eq, reason = "empty-ledger division guard: charges are validated non-negative, so zero total means no charges at all")
        if total == 0.0 {
            0.0
        } else {
            (self.wasted_j + self.retransmit_j + self.poisoned_j + self.control_j) / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_split_by_usage() {
        let mut ledger = EnergyLedger::new();
        ledger.charge(0, EnergyUse::Useful, 10.0, "training");
        ledger.charge(0, EnergyUse::Retransmit, 2.0, "upload");
        ledger.charge(1, EnergyUse::Wasted, 5.0, "abandoned round");
        ledger.charge(1, EnergyUse::Poisoned, 3.0, "screened update");
        assert_eq!(ledger.useful_joules(), 10.0);
        assert_eq!(ledger.wasted_joules(), 5.0);
        assert_eq!(ledger.retransmit_joules(), 2.0);
        assert_eq!(ledger.poisoned_joules(), 3.0);
        assert_eq!(ledger.total_joules(), 20.0);
        assert!((ledger.overhead_fraction() - 10.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn control_charges_are_tracked_and_count_as_overhead() {
        let mut ledger = EnergyLedger::new();
        ledger.charge(0, EnergyUse::Useful, 8.0, "training");
        ledger.charge(0, EnergyUse::Control, 2.0, "heartbeats");
        assert_eq!(ledger.control_joules(), 2.0);
        assert_eq!(ledger.total_joules(), 10.0);
        assert!((ledger.overhead_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_ledger_has_zero_overhead() {
        assert_eq!(EnergyLedger::new().overhead_fraction(), 0.0);
        assert_eq!(EnergyLedger::new().total_joules(), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_negative_charge() {
        EnergyLedger::new().charge(0, EnergyUse::Useful, -1.0, "bad");
    }
}
