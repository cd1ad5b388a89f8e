//! Joules per round, priced by the product's own models on measured
//! bytes: `ComputationModel::paper_fit` for local epochs and the WiFi
//! `Link`s for every byte moved, entered in an `EnergyLedger` by use.

use crate::api::{ComputationModel, EnergyLedger, EnergyUse, Link};
use crate::metrics::Outcome;

/// Bytes of one traffic class: `transfers` frames of `frame_bytes` each.
#[derive(Debug, Clone, Copy, Default)]
pub struct Traffic {
    pub transfers: u64,
    pub frame_bytes: u64,
}

impl Traffic {
    /// `total` bytes moved as `transfers` equal frames.
    pub fn split(total: u64, transfers: u64) -> Self {
        Self {
            transfers,
            frame_bytes: total.checked_div(transfers).unwrap_or(0),
        }
    }

    fn joules(self, link: &Link) -> f64 {
        self.transfers as f64 * link.transfer_energy_joules(self.frame_bytes as usize)
    }
}

/// What a campaign spent, by class.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bill {
    /// Local training jobs: `(jobs, epochs, samples per device)`.
    pub training: (u64, usize, usize),
    /// Model frames participants → coordinator, first attempts.
    pub uploads: Traffic,
    /// Model frames coordinator → participants.
    pub downloads: Traffic,
    /// Model frames sent again.
    pub retransmits: Traffic,
    /// Everything else, lumped per direction: joins, heartbeats, verdicts.
    pub control_up_bytes: u64,
    pub control_down_bytes: u64,
}

/// Enters `bill` in a fresh ledger. Each transfer pays the link's set-up
/// latency and airtime, as the paper's per-upload `e_u` does.
pub fn price(bill: &Bill) -> EnergyLedger {
    let (up, down) = (Link::wifi_uplink(), Link::wifi_downlink());
    let (jobs, epochs, samples) = bill.training;
    let mut ledger = EnergyLedger::new();
    ledger.charge(
        0,
        EnergyUse::Useful,
        jobs as f64 * ComputationModel::paper_fit().energy_joules(epochs, samples),
        "training",
    );
    ledger.charge(0, EnergyUse::Useful, bill.uploads.joules(&up), "upload");
    ledger.charge(
        0,
        EnergyUse::Useful,
        bill.downloads.joules(&down),
        "download",
    );
    ledger.charge(
        0,
        EnergyUse::Retransmit,
        bill.retransmits.joules(&up),
        "retransmit",
    );
    ledger.charge(
        0,
        EnergyUse::Control,
        Traffic::split(bill.control_up_bytes, 1).joules(&up)
            + Traffic::split(bill.control_down_bytes, 1).joules(&down),
        "control",
    );
    ledger
}

/// The per-layer split of `joules_per_round`, by the ledger's uses.
pub fn set_split(out: &mut Outcome, ledger: &EnergyLedger, rounds: f64) {
    out.set(
        "core.joules_useful_per_round",
        ledger.useful_joules() / rounds,
    );
    out.set(
        "core.joules_control_per_round",
        ledger.control_joules() / rounds,
    );
    out.set(
        "core.joules_retransmit_per_round",
        ledger.retransmit_joules() / rounds,
    );
}
