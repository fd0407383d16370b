//! Seeded-bad fixture: two functions nest the same pair of locks in
//! opposite orders — the classic AB/BA deadlock.

use std::sync::Mutex;

pub(crate) struct Shards {
    alpha: Mutex<u32>,
    beta: Mutex<u32>,
}

impl Shards {
    pub(crate) fn alpha_then_beta(&self) -> u32 {
        let a = self.alpha.lock().unwrap_or_else(|e| e.into_inner());
        let b = self.beta.lock().unwrap_or_else(|e| e.into_inner());
        *a + *b
    }

    pub(crate) fn beta_then_alpha(&self) -> u32 {
        let b = self.beta.lock().unwrap_or_else(|e| e.into_inner());
        let a = self.alpha.lock().unwrap_or_else(|e| e.into_inner());
        *a - *b
    }

    pub(crate) fn sequential_is_fine(&self) -> u32 {
        let a = self.alpha.lock().unwrap_or_else(|e| e.into_inner());
        let first = *a;
        drop(a);
        let b = self.beta.lock().unwrap_or_else(|e| e.into_inner());
        first + *b
    }
}
