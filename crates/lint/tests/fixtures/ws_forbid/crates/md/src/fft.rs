//! Seeded-bad fixture: FFT arithmetic and per-CPU code.

fn twiddle(ang: f64) -> (f64, f64) {
    // lint:allow(fft_arith, fixture exercises the one allowed trig line)
    (ang.cos(), ang.sin())
}

fn fused(a: f64, b: f64, c: f64) -> f64 {
    a.mul_add(b, c)
}

#[cfg(test)]
mod tests {
    fn test_code_may_fuse(a: f64) -> f64 {
        a.mul_add(2.0, 1.0)
    }

    fn but_not_unchecked(p: *const f64) -> f64 {
        unsafe { *p }
    }
}
