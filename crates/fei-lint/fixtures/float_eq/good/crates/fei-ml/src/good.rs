//! Known-good: tolerance comparisons for measured quantities; exact
//! comparison only on integers.
pub fn settled(energy_j: f64, accuracy: f64, rounds: usize) -> bool {
    if energy_j.abs() <= 1e-12 {
        return true;
    }
    (accuracy - 0.93).abs() <= 1e-9 && rounds == 0
}
