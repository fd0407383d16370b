//! Seeded-bad fixture: trig in the PME solve.

fn phase(x: f64) -> (f64, f64) {
    x.sin_cos()
}
