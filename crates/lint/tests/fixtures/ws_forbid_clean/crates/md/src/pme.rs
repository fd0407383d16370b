//! Twiddles never call cos( here; the unsafe keyword is banned too.

/* Neither does this block comment: sin_cos(x), mul_add, target_feature. */
fn label() -> &'static str {
    "cos( and unsafe inside a string"
}
