//! `cactus-lint`: workspace static analyzer for the Cactus serving stack.
//!
//! Five rule families run over a lexed (not parsed) view of the workspace
//! (plus, for `forbid`'s text rows, the named non-Rust files read as text):
//!
//! * [`rules::forbid`] — one table of rows, each a rule name, a path set,
//!   the shapes forbidden there and the reason. Token rows match lexed
//!   `.rs` code (`no_panic`: daemon paths — the `serve`, `gateway`, `obs`,
//!   `simindex`, `store` and `wir` crates plus the `gpu` cold-simulate
//!   files `pool` and `engine` — must not `unwrap()`, `expect()`, `panic!`
//!   or index by integer literal outside `#[cfg(test)]` code; further rows
//!   pin the daemon loop, the MD/tensor arithmetic, the cache oracle and
//!   the store internals to where they belong). A hit yields to a
//!   `// lint:allow(rule, reason)` comment on the same or preceding line;
//!   the reason is mandatory. Text rows match docs, YAML and results line
//!   by line, and absent rows name paths that must not exist.
//! * [`rules::lock_order`] — every `.lock()`/`.read()`/`.write()` site is
//!   an acquisition; `let`-bound guards live to the end of their brace
//!   scope (or an explicit `drop(guard)`). Nested acquisitions become
//!   edges in a workspace-wide lock graph, and any cycle — a potential
//!   deadlock — is a finding listing both sites. The runtime counterpart
//!   is [`cactus-obs`'s `RankedMutex`], which panics on rank inversion.
//! * [`rules::surface`] — every `/v1` path a client, bench, bin, or test
//!   consumes must be served by `serve::routes` or `gateway::server`, and
//!   every span name passed to `.child(...)` must come from the
//!   `SPAN_NAMES` registry in `cactus-obs`.
//! * [`rules::names`] — metric registrations are unique workspace-wide,
//!   match `^cactus_[a-z0-9_]+$` (after normalizing `{i}` interpolations),
//!   and counters end in `_total`.
//! * [`rules::reach`] — a `pub` item in a crate's non-bin `src/` must be
//!   named somewhere outside that `src/` (another crate, a bin, `tests/`,
//!   `benches/`, `examples/` or `benchmark/src`); otherwise it belongs at
//!   `pub(crate)`, where rustc's `dead_code` lint sees it. Types a `pub`
//!   signature, field or variant exposes are exempt.
//!
//! The library is dependency-free and never panics on arbitrary input;
//! the `cactus-lint` binary renders findings as text or JSON and exits
//! nonzero when any survive.
//!
//! [`cactus-obs`'s `RankedMutex`]: ../cactus_obs/lock/index.html

pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;

pub use report::Finding;
pub use scan::Workspace;

/// Run every rule family over `ws` and return the sorted findings.
#[must_use]
pub fn run_all(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(rules::forbid::check(ws));
    findings.extend(rules::lock_order::check(ws));
    findings.extend(rules::surface::check(ws));
    findings.extend(rules::names::check(ws));
    findings.extend(rules::reach::check(ws));
    report::sort(&mut findings);
    findings
}
