//! `cactus-gateway` — a sharded routing tier in front of a `cactus-serve`
//! fleet.
//!
//! One gateway process fronts N profile-serving backends and gives clients
//! a single address with better tail latency and availability than any
//! single backend:
//!
//! * **Consistent-hash routing** ([`ring`]) — each profile key (endpoint,
//!   device, scale, workload) maps to a stable backend, so every shard's
//!   response cache and engine memo cache stay hot for its slice of the
//!   keyspace, and adding or losing a backend only remaps ~1/N of keys.
//! * **Health-checked failover** ([`health`]) — consecutive transport
//!   failures eject a backend from rotation; after a cooldown it re-enters
//!   half-open and one successful trial request re-admits it. Passive
//!   (data-path) detection always runs; active `/v1/healthz` probing is
//!   optional.
//! * **Retries with jittered backoff** ([`proxy`]) — idempotent `GET`s that
//!   hit a transport error or `503` move to the next backend on the ring.
//! * **Hedged requests** ([`proxy`]) — when the primary backend exceeds a
//!   latency threshold derived from its own recent window, a second
//!   identical request races it on the next ring candidate; first response
//!   wins. This converts a slow shard's p99 into roughly its neighbour's
//!   p50.
//! * **Connection pooling** ([`connpool`]) — keep-alive connections to each
//!   backend are reused across requests.
//! * **Device-aware routing** ([`capability`]) — backends advertise which
//!   catalog devices they model on `/v1/healthz`; the gateway learns the
//!   map at startup and on every probe, and routing, failover, hedging,
//!   and replication all restrict themselves to capable backends. A device
//!   nobody models answers `404` at the edge instead of being simulated by
//!   an unwitting shard.
//! * **Cross-device comparison** ([`compare`]) — `GET
//!   /v1/compare/<scale>/<workload>?devices=a,b` fans out to the owning
//!   backends in parallel and synthesizes one table: per-kernel roofline
//!   placement on every device, speedup ratios against the first device,
//!   and bottleneck shifts (kernels whose boundedness class changes between
//!   devices), rendered as JSON or CSV.
//! * **Fleet supervision** ([`supervisor`]) — in-process spawn / kill /
//!   restart of `cactus-serve` backends with pinned ports, powering both
//!   the `--fleet` flag of the `cactus-gateway` binary and the failover
//!   integration suite.
//!
//! Observability mirrors the backends: `/v1/metricsz` ([`metrics`]) exposes
//! per-backend route counts, failures, health states, ejections, retries,
//! hedge launches/wins, and latency quantiles, rendered by the same
//! `cactus_obs::MetricsRegistry` exposition code the backends use. Every
//! request carries a trace id — propagated from `x-cactus-trace` or minted
//! at the edge — that roots a `gateway.route` span, follows the request to
//! the chosen backend, and is queryable at `/v1/tracez` on both tiers.

pub mod capability;
pub mod compare;
pub mod connpool;
pub mod health;
pub mod metrics;
pub mod proxy;
pub mod ring;
pub mod server;
pub mod supervisor;
pub mod sync;

pub use capability::CapabilityMap;
pub use health::{HealthState, HealthTracker};
pub use proxy::{RoutePolicy, Router};
pub use ring::HashRing;
pub use server::{Gateway, GatewayConfig};
pub use supervisor::Supervisor;
