//! Seeded-bad fixture: the launch engine is a daemon file even though the
//! `gpu` crate as a whole is not a daemon crate.

fn launch(v: Option<u32>) -> u32 {
    v.unwrap()
}
