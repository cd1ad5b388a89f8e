//! Two variants nothing bills into and nothing reports; the directive must
//! suppress only the annotated one — its twin is still dead accounting.
pub enum EnergyUse {
    Useful,
    // fei-lint: allow(enum-billing, reason = "reserved for the idle-draw bucket")
    Reserved,
    Phantom,
}

pub fn charge(usage: EnergyUse, joules: f64) -> f64 {
    match usage {
        EnergyUse::Useful => joules,
        _ => 0.0,
    }
}
