//! Seeded-bad fixture: a fig bin names the trace-driven cache oracle.

use cactus_gpu::cache::trace;
