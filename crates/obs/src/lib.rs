//! `cactus-obs` — the shared observability layer of the Cactus serving
//! stack (`cactus-serve`, `cactus-gateway`, and the engine pool beneath
//! them).
//!
//! The paper this repo reproduces is a *measurement* methodology; the
//! serving tiers deserve the same rigor the simulated kernels get. Before
//! this crate each tier hand-rolled its own counters and its own `/metricsz`
//! text format, and a slow request could not be attributed to cache-miss vs.
//! simulate vs. proxy hop. This crate centralizes all of it:
//!
//! * [`registry`] — a lock-cheap [`MetricsRegistry`]
//!   of named counters, gauges, and latency histograms. Registration (cold
//!   path) takes a mutex once and rejects name collisions; the handles it
//!   returns are `Arc`ed atomics, so the hot path is a single relaxed
//!   atomic op. Histograms use fixed power-of-two buckets, giving bounded
//!   memory and quantiles with a guaranteed ≤2× overestimate.
//! * [`expo`] — one Prometheus-style text exposition
//!   renderer shared verbatim by every `/v1/metricsz`
//!   endpoint, and a [strict parser](expo::parse) that errors on malformed
//!   or duplicated samples instead of silently dropping them. The same
//!   parser backs the typed client, the tests, and the CI smoke checks, so
//!   a formatting regression in any tier fails loudly everywhere.
//! * [`trace`] — structured tracing: a [`TraceId`] minted at
//!   the edge and propagated via the `x-cactus-trace` header, a
//!   [`Tracer`] holding a bounded ring of finished spans
//!   (served at `/v1/tracez`) and optionally appending each span to a JSONL
//!   log, and [`SpanCtx`]/[`SpanGuard`]
//!   for threading parent/child structure through the request path. One
//!   request yields one span tree: `gateway.route` → `proxy.attempt` →
//!   `serve.request` → `serve.cache|serve.profile` →
//!   `serve.store|serve.simulate` → `engine.launch`.
//! * [`lock`] — [`RankedMutex`], the rank-ordered mutex
//!   every long-lived lock in the stack is built on. Under
//!   `debug_assertions` or `--features lock-check` it tracks a per-thread
//!   acquisition stack and panics on rank inversion with both sites; in
//!   release it is a plain poison-recovering `Mutex` passthrough. The
//!   static half of the same defense lives in `cactus-lint`.
//! * [`api`] — the versioned-API error envelope `{code, message,
//!   retryable}` shared by serve, gateway, and the typed client, so clients
//!   branch on structured fields instead of string-matching status lines.
//!
//! Like the tiers it instruments, the crate is std-only.

pub mod api;
pub mod expo;
pub mod lock;
pub mod registry;
pub mod trace;

pub use api::{ApiError, TRACE_HEADER};
pub use expo::{parse, Exposition};
pub use lock::{RankedGuard, RankedMutex};
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry, RegistryError};
pub use trace::{SpanCtx, SpanGuard, SpanRecord, TraceId, Tracer};
