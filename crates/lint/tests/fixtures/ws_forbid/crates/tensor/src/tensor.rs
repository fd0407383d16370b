//! Seeded-bad fixture: non-test code after the test module is still
//! checked.

#[cfg(test)]
mod tests {
    fn test_code_may_fuse(a: f32) -> f32 {
        a.mul_add(2.0, 1.0)
    }
}

pub(crate) fn f(a: f32, b: f32, c: f32) -> f32 {
    a.mul_add(b, c)
}
