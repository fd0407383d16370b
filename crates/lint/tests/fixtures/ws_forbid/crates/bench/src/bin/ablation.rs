//! Control fixture: the ablation bin may name the oracle.

use cactus_gpu::cache::trace;
