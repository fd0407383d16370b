//! Seeded `reach` cases: two findings, four clean controls.

/// Finding: only this crate calls it.
pub fn only_here() -> u32 {
    1
}

/// Finding: beta names it only in a comment.
pub fn in_comment() -> u32 {
    2
}

/// Clean: already narrowed.
pub(crate) fn narrowed() -> u32 {
    only_here() + in_comment()
}

/// Clean: named only in `make`'s signature.
pub struct Shown(pub u32);

/// Clean: beta's bin calls it.
pub fn make() -> Shown {
    Shown(narrowed())
}

/// Clean: beta's integration test names it.
pub fn probe() -> u32 {
    3
}

#[cfg(test)]
mod tests {
    /// Clean: test code is not checked.
    pub fn helper() -> u32 {
        super::probe()
    }
}
