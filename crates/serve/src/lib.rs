//! `cactus-serve` — a concurrent profile-serving daemon over the Cactus
//! simulation stack.
//!
//! The daemon answers HTTP/1.1 `GET`s for per-kernel metrics, suite
//! profiles, roofline coordinates, and dominant-kernel reports for any
//! `(device preset, scale, workload)` triple, resolving each request
//! through a three-level hierarchy:
//!
//! 1. **Response cache** ([`cache`]) — an in-memory LRU of rendered bodies;
//!    repeat requests never touch the simulator.
//! 2. **Profile store** ([`service`] → `cactus_store::Store`) — profiles
//!    already in the durable segment log (simulated by an earlier run of
//!    this daemon, replicated by the gateway, or written by the fig/table
//!    bins, which share the default directory) are decoded instead of
//!    re-simulated. One process holds a store directory at a time.
//! 3. **Live simulation** ([`service`] → `cactus_gpu::pool::GpuPool`) — a
//!    pool of memoizing engines runs the workload, with **single-flight
//!    coalescing** ([`singleflight`]): N concurrent requests for the same
//!    uncached triple cost exactly one simulation.
//!
//! The socket side ([`daemon`]) is std-only and shared with
//! `cactus-gateway` — one skeleton, one [`daemon::Handler`] per tier: a
//! nonblocking accept loop feeds a bounded queue drained by a worker pool;
//! a full queue answers `503 + Retry-After` immediately (explicit
//! backpressure instead of unbounded queueing), a panicking handler is a
//! `500`, and shutdown drains in-flight requests before threads exit.
//! [`server`] is this tier's handler, state and compactor. Endpoints live
//! on the versioned `/v1` surface, the only one: `/v1/healthz` for liveness, `/v1/metricsz` ([`metrics`], rendered
//! by the shared `cactus_obs::MetricsRegistry`) for request counts, latency
//! quantiles, and every cache level's hit rates, and `/v1/tracez` for the
//! span ring — each request carries one trace id (minted here or propagated
//! from the gateway via `x-cactus-trace`) whose span tree covers cache,
//! store, and simulation stages. Errors are the shared JSON envelope
//! (`cactus_obs::ApiError`).
//!
//! Every HTTP message either tier reads goes through [`http`]'s one bounded
//! reader; [`client`] has one transport, the keep-alive [`Connection`].
//! Every table body and the health page is written and read by [`wire`].
//!
//! Two binaries ship with the crate: `cactus-serve` (the daemon, with
//! signal-driven graceful shutdown via [`signal`]) and `loadgen` (a
//! closed-loop load generator reporting throughput and latency through the
//! typed [`client`]).

pub mod cache;
pub mod client;
pub mod daemon;
pub mod http;
pub mod metrics;
pub mod net;
pub mod routes;
pub mod server;
pub mod service;
pub mod signal;
pub mod similar;
pub mod singleflight;
pub mod wire;

pub use client::{Client, Connection, DeviceId, ProfileQuery, SimilarQuery};
pub use server::{ServeConfig, Server};
pub use wire::{parse_health_devices, CompareRow, DeviceEntry, SimilarHit};
