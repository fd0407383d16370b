//! Seeded-bad fixture: a derivation that takes the engine (a Gpu) where
//! it should take a launch sink.

use cactus_gpu::LaunchSink;

fn run(gpu: &mut Gpu, sink: &mut dyn LaunchSink) {}

#[cfg(test)]
mod tests {
    use cactus_gpu::{Device, Gpu};

    fn priced() -> Gpu {
        Gpu::new(Device::rtx3080())
    }
}
