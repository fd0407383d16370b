//! Control fixture: fused arithmetic inside test code only.

pub(crate) fn f(a: f32, b: f32, c: f32) -> f32 {
    a * b + c
}

#[cfg(test)]
mod tests {
    fn oracle(a: f32, b: f32, c: f32) -> f32 {
        a.mul_add(b, c)
    }
}
