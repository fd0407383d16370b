//! Compiled only under `cfg(test)` (its parent declares it with
//! `#[cfg(test)] mod helper;`), so the engine it builds is test code.

use cactus_gpu::{Device, Gpu};

pub(crate) fn priced() -> Gpu {
    Gpu::new(Device::rtx3080())
}
