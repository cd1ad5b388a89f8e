//! The one live bucket, billed from outside the ledger's own file.
pub fn bill(joules: f64) -> f64 {
    charge(EnergyUse::Useful, joules)
}
